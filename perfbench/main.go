// Command perfbench is d2t2's benchmark. It drives d2t2d in-process
// through one of four seeded workloads (cold, warm, measure, update),
// checks every response, and prints the end-to-end metrics; with
// --trace 1 it instead replays the same operations through each
// layer's public functions and prints per-layer metrics.
//
//	go run . --workload cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it holds the
// run's context (environment, tail percentile, failure detail).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRuns is how many times an untraced run sets up a fresh server;
// setup_s reports their median.
const setupRuns = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // where a traced run writes its spans ("" = nowhere)
	root     string // repository root, for the line count
	// corrupt damages one expected warm body, so the gate must fail.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "cold", "workload: cold, warm, measure or update")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: timed operations scale with it")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "traced runs write their spans here as JSON lines")
	flag.StringVar(&cfg.root, "root", ".", "repository root, for the Go line count")
	flag.Parse()
	cfg.trace = trace == 1
	res, info, err := bench(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		os.Exit(2)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// pass is one run of a workload's timed operations.
type pass struct {
	latMS   []float64
	wall    time.Duration
	cpu     time.Duration
	blocks  []block
	failed  map[int]string
	counter map[string]int64 // server counters moved by the pass
	steal   float64          // share of the machine's CPU time stolen, %
}

// block is a run of consecutive timed ops, sampled at its ends.
type block struct {
	lo, hi          int // ops [lo, hi)
	wall, cpu, wait time.Duration
}

// delivered is the share of the CPU time the block's threads asked for
// that they got; scaling a time by it removes the wait neighbours
// imposed. With no CPU used the block is taken as uncontended.
func (b block) delivered() float64 {
	if b.cpu <= 0 {
		return 1
	}
	return float64(b.cpu) / float64(b.cpu+max(b.wait, 0))
}

// tailBlocks is how many blocks a pass is cut into, at most; a block
// holds at least 50 ops, ten beyond its 80th percentile.
const tailBlocks = 20

var counterNames = []string{
	"optimize_total", "optimize_cache_hits", "predict_total", "predict_cache_hits",
	"batch_jobs_total", "batch_cache_hits", "artifact_mem_hits", "artifact_misses",
	"stats_collect_total", "stats_merge_total",
}

// runPass sends the timed operations in a closed loop from one client.
func runPass(c *client, w workload, tr *tracer) pass {
	n := w.ops()
	p := pass{latMS: make([]float64, n), failed: make(map[int]string), counter: make(map[string]int64)}
	for _, name := range counterNames {
		p.counter[name] = -c.srv.Metric(name)
	}
	nb := min(max(n/50, 1), tailBlocks)
	runtime.GC()
	steal0, total0 := stealTicks()
	t0, cpu0, wait0 := time.Now(), cpuTime(), waitTime()
	tb, cb, wb := t0, cpu0, wait0
	for k := 0; k < nb; k++ {
		b := block{lo: k * n / nb, hi: (k + 1) * n / nb}
		for i := b.lo; i < b.hi; i++ {
			done := tr.enter("serve.op", phaseTimed, i)
			s := time.Now()
			err := w.op(c, i)
			p.latMS[i] = float64(time.Since(s)) / 1e6
			done()
			if err != nil {
				p.failed[i] = err.Error()
			}
		}
		t, cpu, wait := time.Now(), cpuTime(), waitTime()
		b.wall, b.cpu, b.wait = t.Sub(tb), cpu-cb, wait-wb
		tb, cb, wb = t, cpu, wait
		p.blocks = append(p.blocks, b)
	}
	p.wall = tb.Sub(t0)
	p.cpu = cb - cpu0
	steal1, total1 := stealTicks()
	if total1 > total0 {
		p.steal = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	for _, name := range counterNames {
		p.counter[name] += c.srv.Metric(name)
	}
	return p
}

// timing is a pass's end-to-end time metrics.
//
// Wall-clock times are scaled, block by block, by the share of the CPU
// time the process asked for that it got (block.delivered): on a shared
// host the hypervisor takes CPUs away for seconds at a time, which
// stretches every wall-clock time but is no property of the program.
// The unscaled figures go to the info line.
type timing struct {
	throughput, p50, tail, cpuPerOp float64
	// The tail is taken per block at the highest percentile that leaves
	// ten samples beyond it in every block, and the median over blocks
	// is reported: a burst of contention that spans less than half the
	// blocks leaves it unchanged, where the tail of the whole pass would
	// sit inside the burst.
	tailPct         float64
	blockOps        int
	blockTail       []float64
	blockThroughput []float64 // context: how contention varied in the pass
	blockDelivered  []float64
	// unscaled wall-clock figures
	rawThroughput, rawP50, rawTail float64
}

func (p pass) timing() timing {
	n := len(p.latMS)
	t := timing{
		cpuPerOp:      p.cpu.Seconds() * 1000 / float64(n),
		rawThroughput: float64(n) / p.wall.Seconds(),
		rawP50:        median(p.latMS),
		blockOps:      n / len(p.blocks),
	}
	t.tailPct = tailPercentile(t.blockOps)
	lat := make([]float64, n)
	var wall float64
	var rawTail []float64
	for _, b := range p.blocks {
		f := b.delivered()
		wall += b.wall.Seconds() * f
		for i := b.lo; i < b.hi; i++ {
			lat[i] = p.latMS[i] * f
		}
		rawTail = append(rawTail, percentile(p.latMS[b.lo:b.hi], t.tailPct))
		t.blockTail = append(t.blockTail, percentile(lat[b.lo:b.hi], t.tailPct))
		t.blockThroughput = append(t.blockThroughput, float64(b.hi-b.lo)/(b.wall.Seconds()*f))
		t.blockDelivered = append(t.blockDelivered, f)
	}
	t.throughput = float64(n) / wall
	t.p50 = median(lat)
	t.tail = median(t.blockTail)
	t.rawTail = median(rawTail)
	return t
}

// setUp builds a fresh server and runs the workload's set-up on it. The
// time is scaled like the timed ops' (block.delivered).
func setUp(ctx context.Context, w workload) (*client, time.Duration, error) {
	runtime.GC()
	t0, cpu0, wait0 := time.Now(), cpuTime(), waitTime()
	c, err := newClient(ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := w.setup(c); err != nil {
		c.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	b := block{wall: time.Since(t0), cpu: cpuTime() - cpu0, wait: waitTime() - wait0}
	return c, time.Duration(float64(b.wall) * b.delivered()), nil
}

// drive sets the workload up reps times on fresh servers, then runs its
// timed operations on the last one. It returns the set-up times, the
// pass and the process's peak RSS right after the pass.
func drive(ctx context.Context, w workload, tr *tracer, reps int) ([]float64, pass, float64, error) {
	var setups []float64
	var c *client
	for r := 0; r < reps; r++ {
		if c != nil {
			c.close()
		}
		var d time.Duration
		var err error
		if c, d, err = setUp(ctx, w); err != nil {
			return nil, pass{}, 0, err
		}
		setups = append(setups, d.Seconds())
	}
	p := runPass(c, w, tr)
	rss := peakRSSMB()
	c.close()
	return setups, p, rss, nil
}

func bench(ctx context.Context, cfg config) (*result, map[string]any, error) {
	sp, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, nil, fmt.Errorf("--seconds must be at least 1")
	}
	n := max(sp.minOps, int(sp.perSec*float64(cfg.seconds)))
	t0 := time.Now()
	w := sp.build(rand.New(rand.NewSource(cfg.seed)), n)
	genS := time.Since(t0).Seconds()
	if wm, ok := w.(*warm); ok {
		wm.corrupt = cfg.corrupt
	}
	per, total := goLines(cfg.root)
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "ops": n,
		"env": environment(), "load_before": loadAvg(),
		"go_lines_total": total, "go_lines_per_package": per, "generate_s": genS,
	}
	setups, p, rss, err := drive(ctx, w, nil, setupRuns)
	if err != nil {
		return nil, nil, err
	}
	t := p.timing()
	info["load_after"] = loadAvg()
	info["steal_pct"] = p.steal
	info["cpu_wall_ratio"] = p.cpu.Seconds() / p.wall.Seconds()
	info["setup_runs_s"] = setups
	info["latency_samples"] = n
	info["tail_percentile"] = t.tailPct
	info["tail_samples_per_block"] = t.blockOps
	info["block_tail_ms"] = t.blockTail
	info["block_throughput_ops_s"] = t.blockThroughput
	info["block_delivered"] = t.blockDelivered
	info["unscaled"] = map[string]float64{
		"throughput_ops_s": t.rawThroughput, "latency_p50_ms": t.rawP50, "latency_tail_ms": t.rawTail,
	}
	if cfg.trace {
		return benchTraced(ctx, cfg, w, info, p)
	}

	g := newGate(ctx, newReplayer(ctx, nil), cfg.seed, stride(cfg.workload))
	defer g.close()
	t0 = time.Now()
	if err := w.check(g); err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	info["check_s"] = time.Since(t0).Seconds()
	res := outcome(p, g, info)
	res.Metrics = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_ops_s": {t.throughput, "ops/s"},
		"latency_p50_ms":   {t.p50, "ms"},
		"latency_tail_ms":  {t.tail, "ms"},
		"cpu_ms_per_op":    {t.cpuPerOp, "ms"},
		"peak_rss_mb":      {rss, "MB"},
		"traffic_ratio":    {g.trafficRatio(), "ratio"},
		"model_error_pct":  {g.modelErrorPct(), "%"},
	}
	return res, info, nil
}

// stride is how often the gate samples an op for its costlier checks.
func stride(workload string) int {
	switch workload {
	case "measure":
		return 8
	case "update":
		return 4
	}
	return 1
}

// outcome folds the pass's and the gate's failures into a result.
func outcome(p pass, g *gate, info map[string]any) *result {
	failed := make(map[int]string)
	for i, why := range p.failed {
		failed[i] = why
	}
	for i, why := range g.failed {
		if _, ok := failed[i]; !ok {
			failed[i] = why
		}
	}
	n := len(p.latMS)
	nf := len(failed) + len(g.other)
	info["fail_pct"] = 100 * float64(nf) / float64(n)
	if nf > 0 {
		var ops []int
		for i := range failed {
			ops = append(ops, i)
		}
		sort.Ints(ops)
		detail := append([]string(nil), g.other...)
		for _, i := range ops[:min(len(ops), 5)] {
			detail = append(detail, fmt.Sprintf("op %d: %s", i, failed[i]))
		}
		info["failures"] = detail
	}
	return &result{Correct: nf == 0, Attempted: n, Failed: nf}
}

// benchTraced runs the timed operations twice on fresh servers, once
// plain and once recording a span per operation (their throughput ratio
// is the tracing overhead), then replays the operations through each
// layer and runs the gate, both under the tracer.
func benchTraced(ctx context.Context, cfg config, w workload, info map[string]any, plain pass) (*result, map[string]any, error) {
	n := w.ops()
	tr := newTracer()
	_, p, _, err := drive(ctx, w, tr, 1)
	if err != nil {
		return nil, nil, err
	}
	debug.FreeOSMemory()

	rp := newReplayer(ctx, tr)
	if err := w.replay(rp); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	g := newGate(ctx, rp, cfg.seed, stride(cfg.workload))
	defer g.close()
	done := tr.enter("check", phaseCheck, -1)
	err = w.check(g)
	done()
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	tr.finish()
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return nil, nil, err
		}
		info["spans"] = cfg.spans
	}
	res := outcome(p, g, info)

	lib := tr.libraryMS(n)
	self := 0.0
	for i, l := range lib {
		self += p.latMS[i] - l
	}
	L := tr.layers()
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	k := p.counter
	touched := ratio(int64(g.touched[0]), int64(g.touched[1]))
	if u, ok := w.(*update); ok {
		touched = u.touchedRatio()
	}
	res.Metrics = map[string]metric{
		"ingest.parse_ms":             {L["ingest.parse"].msPerCall(), "ms"},
		"snapshot.tensor_id_ms":       {L["snapshot.tensor_id"].msPerCall(), "ms"},
		"snapshot.encode_ms":          {L["snapshot.encode"].msPerCall(), "ms"},
		"snapshot.decode_ms":          {L["snapshot.decode"].msPerCall(), "ms"},
		"tiling.base_ms":              {L["tiling.base"].msPerCall(), "ms"},
		"stats.collect_ms":            {L["stats.collect"].msPerCall(), "ms"},
		"stats.collect_alloc_mb":      {L["stats.collect"].mbPerCall(), "MB"},
		"stats.delta_ms":              {L["stats.delta"].msPerCall(), "ms"},
		"stats.delta_touched_ratio":   {touched, "ratio"},
		"optimizer.search_ms":         {L["optimizer.search"].msPerCall(), "ms"},
		"optimizer.candidates_per_op": {float64(rp.candidates) / float64(n), "count"},
		"tiling.retile_ms":            {L["tiling.retile"].msPerCall(), "ms"},
		"exec.measure_ms":             {L["exec.measure"].msPerCall(), "ms"},
		"exec.alloc_mb":               {L["exec.measure"].mbPerCall(), "MB"},
		"serve.request_ms":            {mean(p.latMS), "ms"},
		"serve.self_ms":               {self / float64(n), "ms"},
		"serve.hit_ratio": {ratio(k["optimize_cache_hits"]+k["predict_cache_hits"]+k["batch_cache_hits"],
			k["optimize_total"]+k["predict_total"]+k["batch_jobs_total"]), "ratio"},
		"serve.store_hit_ratio": {ratio(k["artifact_mem_hits"], k["artifact_mem_hits"]+k["artifact_misses"]), "ratio"},
		"serve.collects_per_op": {float64(k["stats_collect_total"]) / float64(n), "count"},
		"trace.overhead_ratio":  {p.timing().throughput / plain.timing().throughput, "ratio"},
	}
	calls := make(map[string]int)
	for name, l := range L {
		calls[name] = l.calls
	}
	info["span_calls"] = calls
	info["process_peak_rss_mb"] = peakRSSMB()
	info["throughput_untraced_ops_s"] = plain.timing().throughput
	info["throughput_traced_ops_s"] = p.timing().throughput
	return res, info, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
