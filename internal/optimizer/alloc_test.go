package optimizer

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/raceflag"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// TestColdOptimizeAllocs is the allocation regression gate for the full
// cold pipeline: summary-only statistics collection, the RF sweep on
// the shape and prediction memos, and size growth. The ceiling is ~2x
// the measured steady state (about 1.8k) — a return to materializing
// the base tiling, per-candidate config cloning or per-RF shape
// re-evaluation multiplies the count well past it.
func TestColdOptimizeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(1))
	a := gen.PowerLawGraph(r, 2048, 200_000, 1.7)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	buffer := tiling.DenseFootprintWords([]int{64, 64})
	for _, tc := range []struct {
		workers int
		ceiling float64
	}{{1, 4000}, {8, 4200}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			avg := testing.AllocsPerRun(2, func() {
				res, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buffer, Workers: tc.workers})
				if err != nil || len(res.Config) == 0 {
					t.Fatalf("optimize failed: %v", err)
				}
			})
			t.Logf("allocs/op: %.0f", avg)
			if avg > tc.ceiling {
				t.Errorf("Optimize allocates %.0f times per call, ceiling %.0f", avg, tc.ceiling)
			}
		})
	}
}

// TestWarmOptimizeAllocs is the allocation gate of the all-hit optimize
// (BenchmarkWarmOptimize's): it resolves every lookup on the calling
// goroutine, so it allocates exactly as often at Workers 2 as at
// Workers 1 — a fan-out would add its goroutines, closures and result
// slices — and it allocates per optimize, not per candidate: 66 allocs,
// under a ceiling of 120. Per-candidate config clones, prediction
// copies in the growth or heap-built memo keys each add dozens.
func TestWarmOptimizeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	w := newWarmOptimize(t)
	var allocs [2]int // AllocsPerRun returns whole counts
	for i, workers := range []int{1, 2} {
		w.o.Workers = workers
		allocs[i] = int(testing.AllocsPerRun(20, func() { w.run(t) }))
		t.Logf("workers=%d: %d allocs/op", workers, allocs[i])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("an all-hit optimize allocates %d times at Workers 1 and %d at Workers 2: it fanned out", allocs[0], allocs[1])
	}
	if allocs[1] > 120 {
		t.Errorf("an all-hit optimize allocates %d times, ceiling 120", allocs[1])
	}
}
