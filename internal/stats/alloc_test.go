package stats

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/raceflag"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// TestCollectFromTiledAllocs is the allocation regression gate for the
// statistics pass. The summary-only micro tiling plus per-worker
// scratch accumulators hold a full collection (including the micro-tile
// retiling of a 200k-entry matrix) to a few hundred allocations; the
// ceiling is several times the measured steady state, but far below the
// ~200k the CSF-materializing path used to burn.
func TestCollectFromTiledAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, 2048, 200_000, 1.7)
	tt, err := tiling.NewCtx(context.Background(), m, []int{64, 64}, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workers int
		ceiling float64
	}{{1, 1500}, {8, 2000}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			avg := testing.AllocsPerRun(2, func() {
				s, err := CollectFromTiledCtx(context.Background(), m, tt, &Options{Workers: tc.workers})
				if err != nil || s.NumTiles == 0 {
					t.Fatalf("collect failed: %v", err)
				}
			})
			t.Logf("allocs/op: %.0f", avg)
			if avg > tc.ceiling {
				t.Errorf("CollectFromTiledCtx allocates %.0f times per call, ceiling %.0f", avg, tc.ceiling)
			}
		})
	}
}

// TestMergeAllocs gates the merge path's allocation budget: combining
// two 100k-entry partials must cost only the merged tables and sketch
// scratch — far below a re-collection. The split is by tile-index
// parity so the halves' tile tables are disjoint, as Merge requires.
func TestMergeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(2))
	m := gen.PowerLawGraph(r, 2048, 200_000, 1.7)
	tileDims := []int{64, 64}
	order := []int{0, 1}
	a, b := tensor.New(m.Dims...), tensor.New(m.Dims...)
	coord := make([]int, m.Order())
	for p := 0; p < m.NNZ(); p++ {
		parity := 0
		for ax := range coord {
			coord[ax] = m.Crds[ax][p]
			parity += coord[ax] / tileDims[ax]
		}
		if parity%2 == 0 {
			a.Append(coord, m.Vals[p])
		} else {
			b.Append(coord, m.Vals[p])
		}
	}
	pa, err := CollectPartialCtx(context.Background(), a, tileDims, order, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := CollectPartialCtx(context.Background(), b, tileDims, order, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2, func() {
		merged, err := Merge(pa, pb)
		if err != nil || merged == nil {
			t.Fatalf("merge failed: %v", err)
		}
	})
	t.Logf("allocs/op: %.0f", avg)
	const ceiling = 400
	if avg > ceiling {
		t.Errorf("Merge allocates %.0f times per call, ceiling %d", avg, ceiling)
	}
}
