package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/raceflag"
	"d2t2/internal/tiling"
)

// TestMeasureAllocs is the allocation regression gate for the compiled
// measurement engine: per-MeasureCtx allocations are bounded by the plan
// build and the per-tile predecode (O(refs + tiles)), never by entries,
// join tuples or output cells — those all live in reused per-worker
// scratch. The ceiling is ~2x the measured steady state so legitimate
// churn does not flake, while a return to per-node map allocation or
// per-tuple slice growth blows through it immediately.
func TestMeasureAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(23))
	a := gen.PowerLawGraph(r, 256, 6000, 1.6)
	b := a.Transpose()
	e := einsum.SpMSpMIKJ()
	tiles := map[string]int{"i": 16, "k": 16, "j": 16}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", b, tiles),
	}
	for _, tc := range []struct {
		workers int
		ceiling float64
	}{{1, 4500}, {8, 5000}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			opts := &Options{Workers: tc.workers}
			avg := testing.AllocsPerRun(2, func() {
				res, err := MeasureCtx(context.Background(), e, tens, opts)
				if err != nil || !res.Specialized || res.MACs == 0 {
					t.Fatalf("measurement failed: %v (specialized=%v)", err, res != nil && res.Specialized)
				}
			})
			t.Logf("allocs/op: %.0f", avg)
			if avg > tc.ceiling {
				t.Errorf("Measure allocates %.0f times per call, ceiling %.0f", avg, tc.ceiling)
			}
		})
	}
}

// TestMeasureAllocsWideTile is the bytes gate for wide output tiles: on
// a 1024²-cell output tile (exactly the dense-stamp cap), a steady-state
// MeasureCtx reuses pooled stamps instead of allocating 4 B per cell, so
// its allocated bytes stay a small fraction of the tile's area. What
// remains is the plan and the per-call predecode of the two operands.
// The ceiling is 1/16 of 4 B × area, ~1.8x the measured steady state.
func TestMeasureAllocsWideTile(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(29))
	a := gen.UniformRandom(r, 2048, 2048, 4000)
	e := einsum.SpMSpMIKJ()
	tiles := map[string]int{"i": 1024, "k": 256, "j": 1024}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", a.Transpose(), tiles),
	}
	const area = 1024 * 1024
	const ceiling = 4 * area / 16
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := &Options{Workers: workers}
			measure := func() {
				res, err := MeasureCtx(context.Background(), e, tens, opts)
				if err != nil || !res.Specialized || res.MACs == 0 {
					t.Fatalf("measurement failed: %v (specialized=%v)", err, res != nil && res.Specialized)
				}
			}
			// Steady state is the cheapest of a few windows: a worker
			// that first runs mid-window grows a reused scratch once.
			perOp := uint64(math.MaxUint64)
			for w := 0; w < 3; w++ {
				const runs = 4
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					measure()
				}
				runtime.ReadMemStats(&after)
				perOp = min(perOp, (after.TotalAlloc-before.TotalAlloc)/runs)
			}
			t.Logf("bytes/op: %d (4 B × area = %d)", perOp, 4*area)
			if perOp > ceiling {
				t.Errorf("Measure allocates %d bytes per call, ceiling %d", perOp, ceiling)
			}
		})
	}
}
