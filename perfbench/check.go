package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"d2t2/internal/einsum"
	"d2t2/internal/mmio"
	"d2t2/internal/model"
	"d2t2/internal/schemes"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// gate is the correctness gate run after the timed phase. Every check
// that fails marks its operation failed; a failure that belongs to no
// single operation (a warm fill body, the merge oracle) is counted on
// its own. The gate also computes the plan-quality metrics, which come
// from the same measurements.
type gate struct {
	ctx    context.Context
	rp     *replayer
	r      *rand.Rand
	stride int // every stride-th op is sampled for the costlier checks

	failed map[int]string
	other  []string

	logRatios []float64 // ln(plan traffic / Conservative traffic)
	relErrors []float64 // |predicted − measured| / measured
	cons      map[string]float64
	touched   [2]int // the merge oracle's touched and total tiles

	ref *client // reference server for the update workload
}

func newGate(ctx context.Context, rp *replayer, seed int64, stride int) *gate {
	return &gate{
		ctx: ctx, rp: rp, r: rand.New(rand.NewSource(seed ^ 0x5eed)), stride: stride,
		failed: make(map[int]string), cons: make(map[string]float64),
	}
}

func (g *gate) close() {
	if g.ref != nil {
		g.ref.close()
	}
}

// fail records a failed check on op i (i < 0: no single op).
func (g *gate) fail(i int, why string) {
	if i < 0 {
		g.other = append(g.other, why)
		return
	}
	if _, ok := g.failed[i]; !ok {
		g.failed[i] = why
	}
}

func (g *gate) sampled(i int) bool { return i%g.stride == 0 }

// pick draws an index in [0, n) satisfying ok (nil: any).
func (g *gate) pick(n int, ok func(int) bool) int {
	for _, i := range g.r.Perm(n) {
		if ok == nil || ok(i) {
			return i
		}
	}
	return 0
}

// returned decodes one optimize response and checks that every input's
// largest tile at the returned config fits the buffer. It returns the
// tiled inputs, or false after recording the failure.
func (g *gate) returned(i int, e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int, body []byte, resp *optimizeResp) (map[string]*tiling.TiledTensor, bool) {
	if err := json.Unmarshal(body, resp); err != nil || len(resp.Config) == 0 {
		g.fail(i, fmt.Sprintf("optimize response %q: %v", body, err))
		return nil, false
	}
	tiled, err := g.rp.retile(e, inputs, model.Config(resp.Config))
	if err != nil {
		g.fail(i, "retile: "+err.Error())
		return nil, false
	}
	for name, tt := range tiled {
		if tt.MaxFootprint > bufferWords {
			g.fail(i, fmt.Sprintf("%s's largest tile is %d words, buffer %d", name, tt.MaxFootprint, bufferWords))
			return nil, false
		}
	}
	return tiled, true
}

// plan checks one returned optimize response. With traffic set it also
// executes the plan, and the Conservative scheme at the same buffer, for
// the plan-quality metrics, and round-trips the body through the
// response codec.
func (g *gate) plan(i int, key string, e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int, body []byte, traffic bool) {
	var resp optimizeResp
	tiled, ok := g.returned(i, e, inputs, bufferWords, body, &resp)
	if !ok || !traffic {
		return
	}
	tr, err := g.rp.exec(e, tiled, false)
	if err != nil {
		g.fail(i, "measure: "+err.Error())
		return
	}
	g.quality(i, key, e, inputs, bufferWords, resp.PredictedMB, tr.TotalMB())
	g.roundTrip(i, body)
}

// measured checks one optimize-with-measure response. On sampled ops
// the reported traffic must equal a recount by the generic walker on
// the returned config.
func (g *gate) measured(i int, key string, e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int, body []byte, recount bool) {
	var resp optimizeResp
	tiled, ok := g.returned(i, e, inputs, bufferWords, body, &resp)
	if !ok {
		return
	}
	if resp.MeasuredMB == nil {
		g.fail(i, fmt.Sprintf("measure response without measuredMB: %s", body))
		return
	}
	if recount {
		tr, err := g.rp.exec(e, tiled, true)
		if err != nil {
			g.fail(i, "generic recount: "+err.Error())
			return
		}
		if got := tr.TotalMB(); got != *resp.MeasuredMB {
			// Exact: both sides convert the same integer word count.
			g.fail(i, fmt.Sprintf("measuredMB %v, generic walker counts %v", *resp.MeasuredMB, got))
			return
		}
		g.roundTrip(i, body)
	}
	g.quality(i, key, e, inputs, bufferWords, resp.PredictedMB, *resp.MeasuredMB)
}

// quality records the plan's traffic against the Conservative scheme's
// at the same buffer, and the model's prediction error. inputsKey names
// the input tensors; the Conservative measurement is reused across
// calls with the same inputs, kernel and Conservative config.
func (g *gate) quality(i int, inputsKey string, e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int, predicted, measured float64) {
	cfg := schemes.Conservative(e, bufferWords)
	key := inputsKey + "|" + e.String() + "|" + sortedConfig(cfg)
	cons, ok := g.cons[key]
	if !ok {
		tr, err := g.rp.measure(e, inputs, cfg, false)
		if err != nil {
			g.fail(i, "conservative measure: "+err.Error())
			return
		}
		cons = tr.TotalMB()
		g.cons[key] = cons
	}
	if measured <= 0 || cons <= 0 {
		g.fail(i, fmt.Sprintf("non-positive traffic: plan %v, conservative %v", measured, cons))
		return
	}
	g.logRatios = append(g.logRatios, math.Log(measured/cons))
	g.relErrors = append(g.relErrors, math.Abs(predicted-measured)/measured)
}

func sortedConfig(cfg model.Config) string {
	keys := make([]string, 0, len(cfg))
	for k, v := range cfg {
		keys = append(keys, k+"="+strconv.Itoa(v))
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// roundTrip checks the response codec: a body encoded as a response
// artifact decodes to the same bytes.
func (g *gate) roundTrip(i int, body []byte) {
	var b []byte
	if err := g.rp.tr.run("snapshot.encode", func() error {
		var err error
		b, err = snapshot.EncodeBytes(&snapshot.Artifact{Response: body})
		return err
	}); err != nil {
		g.fail(i, "encode response: "+err.Error())
		return
	}
	var a *snapshot.Artifact
	if err := g.rp.tr.run("snapshot.decode", func() error {
		var err error
		a, err = snapshot.DecodeBytes(b)
		return err
	}); err != nil || !bytes.Equal(a.Response, body) {
		g.fail(i, fmt.Sprintf("response artifact does not round-trip: %v", err))
	}
}

// reference re-plans a sampled update op on a separate server that
// never saw a delta: the new version, uploaded whole, must get the
// content address the delta returned, and a single /v1/optimize of a
// job must return the bytes the batch returned for it (after the JSON
// compaction the batch envelope applies).
func (g *gate) reference(i int, t *tensor.COO, id string, jobs []optimizeReq, br batchResp) {
	if g.ref == nil {
		c, err := newClient(g.ctx)
		if err != nil {
			g.fail(i, "reference server: "+err.Error())
			return
		}
		g.ref = c
	}
	var mtx bytes.Buffer
	if err := mmio.WriteMatrixMarket(&mtx, t); err != nil {
		g.fail(i, "render version: "+err.Error())
		return
	}
	refID, err := g.ref.upload(mtx.Bytes())
	if err != nil || refID != id {
		g.fail(i, fmt.Sprintf("version uploaded whole is %q (%v), delta returned %q", refID, err, id))
		return
	}
	for _, j := range []int{0, len(jobs) - 1} {
		single, err := g.ref.postJSON("/v1/optimize", jobs[j])
		if err != nil {
			g.fail(i, "reference optimize: "+err.Error())
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, single); err != nil || !bytes.Equal(compact.Bytes(), br.Jobs[j].Response) {
			g.fail(i, fmt.Sprintf("batch job %d: %s, single optimize: %s", j, br.Jobs[j].Response, single))
			return
		}
	}
}

// mergeOracle checks, on one of the workload's tensors, that merging a
// delta into partial statistics gives the bytes a from-scratch
// collection gives. Every tenth entry forms the delta.
func (g *gate) mergeOracle(t *tensor.COO) {
	base, delta := tensor.New(t.Dims...), tensor.New(t.Dims...)
	for p := 0; p < t.NNZ(); p++ {
		if p%10 == 0 {
			delta.Append(t.At(p), t.Vals[p])
		} else {
			base.Append(t.At(p), t.Vals[p])
		}
	}
	base.Dedup()
	dims := make([]int, t.Order())
	order := make([]int, t.Order())
	for a := range dims {
		dims[a] = min(deltaTile, t.Dims[a])
		order[a] = a
	}
	opts := &stats.Options{MicroDiv: microDiv, Workers: g.rp.workers}
	var p *stats.Partial
	if err := g.rp.tr.run("check.collect_partial", func() error {
		var err error
		p, err = stats.CollectPartialCtx(g.ctx, base, dims, order, opts)
		return err
	}); err != nil {
		g.fail(-1, "merge oracle: "+err.Error())
		return
	}
	var merged *stats.Stats
	var rep *stats.DeltaReport
	if err := g.rp.tr.run("stats.delta", func() error {
		mp, r, err := stats.ApplyDeltaCtx(g.ctx, p, base, delta, g.rp.workers)
		if err != nil {
			return err
		}
		rep = r
		merged, err = mp.Finalize()
		return err
	}); err != nil {
		g.fail(-1, "merge oracle: "+err.Error())
		return
	}
	g.touched = [2]int{rep.TouchedTiles, rep.TotalTiles}
	var want, got []byte
	err := g.rp.tr.run("check.collect", func() error {
		st, _, err := stats.CollectCtx(g.ctx, t, dims, order, opts)
		if err != nil {
			return err
		}
		if want, err = snapshot.EncodeBytes(&snapshot.Artifact{Stats: st}); err != nil {
			return err
		}
		got, err = snapshot.EncodeBytes(&snapshot.Artifact{Stats: merged})
		return err
	})
	if err != nil || !bytes.Equal(got, want) {
		g.fail(-1, fmt.Sprintf("merge oracle: merged statistics differ from a fresh collection (%v)", err))
	}
}

// trafficRatio is the geometric mean of plan ÷ Conservative traffic.
func (g *gate) trafficRatio() float64 {
	if len(g.logRatios) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range g.logRatios {
		s += v
	}
	return math.Exp(s / float64(len(g.logRatios)))
}

// modelErrorPct is the mean relative prediction error, in percent.
func (g *gate) modelErrorPct() float64 {
	if len(g.relErrors) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range g.relErrors {
		s += v
	}
	return 100 * s / float64(len(g.relErrors))
}
