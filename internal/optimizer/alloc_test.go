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
