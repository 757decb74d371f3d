package exec

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/par"
	"d2t2/internal/tiling"
)

func spmspmFixture(t testing.TB, seed int64) (*einsum.Expr, map[string]*tiling.TiledTensor) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	a := gen.PowerLawGraph(r, 64, 600, 1.6)
	e := einsum.SpMSpMIKJ()
	tiles := map[string]int{"i": 8, "k": 8, "j": 8}
	return e, map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", a.Transpose(), tiles),
	}
}

// TestMeasureCtxCancelled: a dead context stops the measurement at the
// next outer-tile boundary and surfaces the context's error, on both
// backends and at any worker count.
func TestMeasureCtxCancelled(t *testing.T) {
	e, tens := spmspmFixture(t, 31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, generic := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			_, err := MeasureCtx(ctx, e, tens, &Options{ForceGeneric: generic, Workers: workers})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("generic=%v workers=%d: err=%v, want context.Canceled",
					generic, workers, err)
			}
		}
	}
	// A live context yields the usual result.
	if _, err := MeasureCtx(context.Background(), e, tens, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPanicSurfacesValue: a panic inside a worker must come back
// as a *par.PanicError carrying the panic value, not as the discarded
// message the old exec-local wrapper produced. The sabotage (a tile with
// nnz > 0 but a nil leaf coordinate array) trips the walker's per-tile
// decode inside the worker goroutine.
func TestParallelPanicSurfacesValue(t *testing.T) {
	e, tens := spmspmFixture(t, 32)
	for _, tile := range tens["A"].Tiles {
		if tile.CSF != nil && tile.CSF.NNZ() > 0 {
			leaf := len(tile.CSF.Crd) - 1
			tile.CSF.Crd[leaf] = nil
			break
		}
	}
	_, err := MeasureCtx(context.Background(), e, tens, &Options{ForceGeneric: true, Workers: 8})
	if err == nil {
		t.Fatal("sabotaged tile measured without error")
	}
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err is %T (%v), want *par.PanicError", err, err)
	}
	if pe.Value == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("panic value was not preserved: %v", err)
	}
}
