package hierarchy

import (
	"context"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/optimizer"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

func inputsFor(seed int64) map[string]*tensor.COO {
	r := rand.New(rand.NewSource(seed))
	a := gen.Banded(r, 512, 6, 8)
	return map[string]*tensor.COO{"A": a, "B": a.Transpose()}
}

func TestOptimizeAndMeasureTwoLevel(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	inputs := inputsFor(61)
	opts := Options{
		L2BufferWords: tiling.DenseFootprintWords([]int{128, 128}),
		L1BufferWords: tiling.DenseFootprintWords([]int{16, 16}),
	}
	plan, err := Optimize(context.Background(), e, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Both levels configured; L1 dims never exceed L2 dims.
	for _, ix := range e.Order {
		if plan.L1[ix] < 1 || plan.L2[ix] < 1 {
			t.Fatalf("incomplete plan: L1=%v L2=%v", plan.L1, plan.L2)
		}
		if plan.L1[ix] > plan.L2[ix] {
			t.Fatalf("L1 tile %q=%d exceeds L2 %d", ix, plan.L1[ix], plan.L2[ix])
		}
	}

	// Fit guarantees at both levels.
	l2Tiled, err := optimizer.TileAllCtx(context.Background(), e, inputs, plan.L2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, tt := range l2Tiled {
		if tt.MaxFootprint > opts.L2BufferWords {
			t.Fatalf("%s L2 tile overflows: %d > %d", name, tt.MaxFootprint, opts.L2BufferWords)
		}
	}

	rep, err := Measure(context.Background(), e, inputs, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 {
		t.Fatal("no live L2 pairs")
	}
	// The global level re-reads the data the DRAM level loaded at least
	// once per pair use: global traffic >= DRAM input traffic is typical
	// for Gustavson (B re-fetched at both levels); at minimum both levels
	// must report work.
	if rep.DRAM.Total() <= 0 || rep.Global.Total() <= 0 {
		t.Fatalf("missing traffic: dram=%d global=%d", rep.DRAM.Total(), rep.Global.Total())
	}
	// The L1 schedule performs exactly the same multiplications.
	if rep.Global.MACs != rep.DRAM.MACs {
		t.Fatalf("hierarchy changed the computation: %d vs %d MACs", rep.Global.MACs, rep.DRAM.MACs)
	}
}

func TestOptimizeErrors(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	inputs := inputsFor(62)
	if _, err := Optimize(context.Background(), e, inputs, Options{L2BufferWords: 0, L1BufferWords: 10}); err == nil {
		t.Fatal("zero L2 accepted")
	}
	if _, err := Optimize(context.Background(), e, inputs, Options{L2BufferWords: 10, L1BufferWords: 10}); err == nil {
		t.Fatal("L1 >= L2 accepted")
	}
	if _, err := Optimize(context.Background(), einsum.MTTKRP3(), nil, Options{L2BufferWords: 100, L1BufferWords: 10}); err == nil {
		t.Fatal("three-operand kernel accepted")
	}
}

func TestTwoLevelBeatsFlatPEOnGlobalReuse(t *testing.T) {
	// The point of the hierarchy: tiling DRAM→global with big L2 tiles
	// slashes DRAM traffic versus tiling DRAM directly at PE granularity.
	e := einsum.SpMSpMIKJ()
	inputs := inputsFor(63)
	l1 := tiling.DenseFootprintWords([]int{16, 16})
	l2 := tiling.DenseFootprintWords([]int{128, 128})

	plan, err := Optimize(context.Background(), e, inputs, Options{L2BufferWords: l2, L1BufferWords: l1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Measure(context.Background(), e, inputs, plan)
	if err != nil {
		t.Fatal(err)
	}

	flat, err := optimizer.OptimizeCtx(context.Background(), e, inputs, optimizer.Options{BufferWords: l1})
	if err != nil {
		t.Fatal(err)
	}
	flatTiled, err := optimizer.TileAllCtx(context.Background(), e, inputs, flat.Config, 0)
	if err != nil {
		t.Fatal(err)
	}
	flatRes, err := measureFlat(e, flatTiled)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DRAM.Total() >= flatRes {
		t.Fatalf("two-level DRAM traffic %d not below flat PE-granularity %d",
			rep.DRAM.Total(), flatRes)
	}
}

func measureFlat(e *einsum.Expr, tiled map[string]*tiling.TiledTensor) (int64, error) {
	res, err := exec.MeasureCtx(context.Background(), e, tiled, nil)
	if err != nil {
		return 0, err
	}
	return res.Total(), nil
}
