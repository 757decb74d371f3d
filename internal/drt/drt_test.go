package drt

import (
	"context"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

func tileAAT(t *testing.T, a *tensor.COO, tile int) (*tiling.TiledTensor, *tiling.TiledTensor) {
	t.Helper()
	ttA, err := tiling.NewCtx(context.Background(), a, []int{tile, tile}, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ttB, err := tiling.NewCtx(context.Background(), a.Transpose(), []int{tile, tile}, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ttA, ttB
}

func TestSimulateErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := gen.UniformRandom(r, 64, 64, 200)
	ttA, ttB := tileAAT(t, a, 8)
	if _, err := Simulate(ttA, ttB, Options{}); err == nil {
		t.Fatal("zero buffer accepted")
	}
	bad, _ := tiling.NewCtx(context.Background(), a, []int{4, 4}, []int{0, 1}, 0)
	if _, err := Simulate(ttA, bad, Options{BufferWords: 1000}); err == nil {
		t.Fatal("mismatched shared tile accepted")
	}
	t3, _ := tiling.NewCtx(context.Background(), gen.RandomTensor3(r, 8, 8, 8, 20, [3]float64{0, 0, 0}),
		[]int{4, 4, 4}, nil, 0)
	if _, err := Simulate(t3, t3, Options{BufferWords: 1000}); err == nil {
		t.Fatal("3-tensor accepted")
	}
}

// TestSimulateMatchesStaticOnTinyBuffer: with a buffer that fits exactly
// one base tile, DRT cannot aggregate and must behave like the static
// schedule: same MACs, A fetched once per tile, B per (i', k', j').
func TestSimulateMatchesStaticOnTinyBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := gen.Banded(r, 128, 4, 6)
	tile := 16
	ttA, ttB := tileAAT(t, a, tile)

	// Buffer exactly one dense-ish base tile: use the max observed
	// footprint so no aggregation is possible beyond single tiles.
	buffer := ttA.MaxFootprint
	if ttB.MaxFootprint > buffer {
		buffer = ttB.MaxFootprint
	}

	drtRes, err := Simulate(ttA, ttB, Options{BufferWords: buffer})
	if err != nil {
		t.Fatal(err)
	}

	e := einsum.SpMSpMIKJ()
	static, err := exec.MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{"A": ttA, "B": ttB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if drtRes.MACs != static.MACs {
		t.Fatalf("MACs differ: drt %d vs static %d", drtRes.MACs, static.MACs)
	}
	// A is fetched once per aggregate with merged-structure accounting:
	// total A traffic is bounded by the values plus per-row metadata.
	if drtRes.Input["A"] > int64(4*a.NNZ()+8*len(ttA.Tiles)) {
		t.Fatalf("A traffic %d implausibly high", drtRes.Input["A"])
	}
	if drtRes.Input["A"] < int64(a.NNZ()) {
		t.Fatalf("A traffic %d below one pass over the values", drtRes.Input["A"])
	}
}

// TestAggregationReducesBTraffic: with a large buffer DRT groups rows and
// fetches B fewer times than the static schedule.
func TestAggregationReducesBTraffic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := gen.Banded(r, 256, 6, 8)
	ttA, ttB := tileAAT(t, a, 16)
	buffer := 16 * ttA.MaxFootprint

	drtRes, err := Simulate(ttA, ttB, Options{BufferWords: buffer})
	if err != nil {
		t.Fatal(err)
	}
	e := einsum.SpMSpMIKJ()
	static, err := exec.MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{"A": ttA, "B": ttB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if drtRes.Input["B"] >= static.Input["B"] {
		t.Fatalf("aggregation did not reduce B traffic: drt %d vs static %d",
			drtRes.Input["B"], static.Input["B"])
	}
	if drtRes.MACs != static.MACs {
		t.Fatalf("aggregation changed the computation: %d vs %d MACs", drtRes.MACs, static.MACs)
	}
}

// TestAggregatesRespectBuffer: no aggregate the simulator builds may
// exceed the buffer (single base tiles are exempt by construction).
func TestAggregatesRespectBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := gen.PowerLawGraph(r, 256, 3000, 1.7)
	ttA, ttB := tileAAT(t, a, 16)
	buffer := 4 * ttA.MaxFootprint
	res, err := Simulate(ttA, ttB, Options{BufferWords: buffer})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity on accounting: totals positive, output written.
	if res.Input["A"] <= 0 || res.Input["B"] <= 0 || res.Output <= 0 {
		t.Fatalf("missing traffic: %+v", res)
	}
	// Conservation: A traffic covers at least the values once.
	if res.Input["A"] < int64(a.NNZ()) {
		t.Fatalf("A fetched less than one pass over values: %d < %d", res.Input["A"], a.NNZ())
	}
}

func TestValuesOnlyAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := gen.UniformRandom(r, 64, 64, 300)
	ttA, ttB := tileAAT(t, a, 8)
	res, err := Simulate(ttA, ttB, Options{BufferWords: 10 * ttA.MaxFootprint, ValuesOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Values-only A traffic equals nnz when each tile is fetched once.
	if res.Input["A"] != int64(a.NNZ()) {
		t.Fatalf("values-only A traffic %d, want %d", res.Input["A"], a.NNZ())
	}
}

func TestDebugCounters(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := gen.Banded(r, 128, 3, 5)
	ttA, ttB := tileAAT(t, a, 8)
	DebugCounters = &Counters{}
	defer func() { DebugCounters = nil }()
	if _, err := Simulate(ttA, ttB, Options{BufferWords: 8 * ttA.MaxFootprint}); err != nil {
		t.Fatal(err)
	}
	c := DebugCounters
	if c.Groups == 0 || c.Spans == 0 || c.SpanK < c.Spans || c.GroupRows < c.Groups {
		t.Fatalf("counters not populated: %+v", c)
	}
}
