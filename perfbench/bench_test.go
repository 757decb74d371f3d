package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json
// declares: end-to-end metrics for plain runs, per-layer for traced.
func benchmarkSpec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range spec.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	return e2e, layers
}

// smoke runs one workload at smoke size and checks the printed result:
// exactly the four keys, a passing gate, and every declared metric with
// its unit.
func smoke(t *testing.T, cfg config, want map[string]string) map[string]metric {
	t.Helper()
	res, _, err := bench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Errorf("result keys: %s", b)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("gate: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %q", name, m, unit)
		}
	}
	return res.Metrics
}

// TestWorkloadsRepeat runs every workload twice with one seed, plain
// and traced: both gates pass, every metric prints with its unit, and
// the metrics that count rather than time repeat exactly.
func TestWorkloadsRepeat(t *testing.T) {
	e2e, layers := benchmarkSpec(t)
	for _, name := range []string{"cold", "warm", "measure", "update"} {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: defaultSeed, seconds: 1, root: ".."}
			var plain, traced [2]map[string]metric
			for i := range plain {
				cfg.trace = false
				plain[i] = smoke(t, cfg, e2e)
				cfg.trace = true
				traced[i] = smoke(t, cfg, layers)
			}
			for _, m := range []string{"traffic_ratio", "model_error_pct"} {
				if plain[0][m] != plain[1][m] {
					t.Errorf("%s: %v then %v", m, plain[0][m], plain[1][m])
				}
			}
			for _, m := range []string{"serve.collects_per_op", "optimizer.candidates_per_op", "stats.delta_touched_ratio"} {
				if traced[0][m] != traced[1][m] {
					t.Errorf("%s: %v then %v", m, traced[0][m], traced[1][m])
				}
			}
		})
	}
}

// TestGateCatchesCorruptBody damages one expected warm body: the gate
// must report the ops that replay it as failed.
func TestGateCatchesCorruptBody(t *testing.T) {
	res, info, err := bench(context.Background(), config{workload: "warm", seed: defaultSeed, seconds: 1, root: "..", corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted body passed the gate: %+v", res)
	}
	if info["failures"] == nil {
		t.Error("no failure detail in the run's info")
	}
}

// TestTimingScalesByDeliveredShare checks that wall-clock times are
// scaled per block by the share of asked-for CPU the block got, and
// that a block with no CPU time is taken as uncontended.
func TestTimingScalesByDeliveredShare(t *testing.T) {
	ms := time.Millisecond
	p := pass{
		latMS: []float64{10, 10, 20, 20},
		wall:  60 * ms,
		cpu:   40 * ms,
		blocks: []block{
			{lo: 0, hi: 2, wall: 20 * ms, cpu: 20 * ms},                // uncontended
			{lo: 2, hi: 4, wall: 40 * ms, cpu: 20 * ms, wait: 20 * ms}, // got half
		},
	}
	tm := p.timing()
	if tm.throughput != 4/0.04 || tm.rawThroughput != 4/0.06 {
		t.Errorf("throughput %v (unscaled %v), want 100 (66.7)", tm.throughput, tm.rawThroughput)
	}
	if tm.p50 != 10 || tm.rawP50 != 10 {
		t.Errorf("p50 %v (unscaled %v), want 10 (10)", tm.p50, tm.rawP50)
	}
	if tm.blockDelivered[0] != 1 || tm.blockDelivered[1] != 0.5 {
		t.Errorf("delivered shares %v, want [1 0.5]", tm.blockDelivered)
	}
	if f := (block{wall: ms}).delivered(); f != 1 {
		t.Errorf("block without CPU time: delivered %v, want 1", f)
	}
}
