package tiling

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/raceflag"
)

// TestSummarizeMatchesNew pins the summary-only tiler to the full one:
// for every tile the summary's key set, entry count and footprint words
// must equal what NewCtx materializes, at any worker count, across
// 2D and 3D tensors and permuted level orders. This is the invariant
// that lets the statistics collector's micro pass skip building CSFs.
func TestSummarizeMatchesNew(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type tcase struct {
		name string
		gen  func() (tt *TiledTensor, sum1, sum8 *TileSummary, err error)
	}
	run := []tcase{
		{name: "2d", gen: func() (*TiledTensor, *TileSummary, *TileSummary, error) {
			m := gen.PowerLawGraph(r, 256, 4000, 1.5)
			tt, err := NewCtx(context.Background(), m, []int{16, 16}, []int{1, 0}, 4)
			if err != nil {
				return nil, nil, nil, err
			}
			s1, err := SummarizeCtx(context.Background(), m, []int{16, 16}, []int{1, 0}, 1)
			if err != nil {
				return nil, nil, nil, err
			}
			s8, err := SummarizeCtx(context.Background(), m, []int{16, 16}, []int{1, 0}, 8)
			return tt, s1, s8, err
		}},
		{name: "3d", gen: func() (*TiledTensor, *TileSummary, *TileSummary, error) {
			m := gen.RandomTensor3(r, 40, 50, 60, 2000, [3]float64{0, 0.5, 0})
			tt, err := NewCtx(context.Background(), m, []int{8, 8, 8}, []int{2, 0, 1}, 4)
			if err != nil {
				return nil, nil, nil, err
			}
			s1, err := SummarizeCtx(context.Background(), m, []int{8, 8, 8}, []int{2, 0, 1}, 1)
			if err != nil {
				return nil, nil, nil, err
			}
			s8, err := SummarizeCtx(context.Background(), m, []int{8, 8, 8}, []int{2, 0, 1}, 8)
			return tt, s1, s8, err
		}},
	}
	// Inputs for each side of the grouping's branches: a canonical tensor
	// at natural order skips the per-tile sort, its shuffled copy (not
	// canonical, still duplicate-free) and a permuted order sort; a grid
	// of at most 8 cells per entry (radix.Dense) groups by counting, a
	// sparser one by radix sort. The tiling comes from the canonical
	// tensor, the one-worker summary from the shuffled copy.
	for _, bc := range branchCases(r) {
		run = append(run, tcase{name: bc.name, gen: func() (*TiledTensor, *TileSummary, *TileSummary, error) {
			tt, err := NewCtx(context.Background(), bc.m, bc.tile, bc.order, 4)
			if err != nil {
				return nil, nil, nil, err
			}
			s1, err := SummarizeCtx(context.Background(), shuffled(r, bc.m), bc.tile, bc.order, 1)
			if err != nil {
				return nil, nil, nil, err
			}
			s8, err := SummarizeCtx(context.Background(), bc.m, bc.tile, bc.order, 8)
			return tt, s1, s8, err
		}})
	}
	for _, tc := range run {
		t.Run(tc.name, func(t *testing.T) {
			tt, s1, s8, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			for _, sum := range []*TileSummary{s1, s8} {
				if len(sum.Keys) != len(tt.Tiles) {
					t.Fatalf("summary has %d tiles, tiling has %d", len(sum.Keys), len(tt.Tiles))
				}
				if sum.TotalFootprint != tt.TotalFootprint {
					t.Fatalf("TotalFootprint %d != %d", sum.TotalFootprint, tt.TotalFootprint)
				}
				total := 0
				for i, k := range sum.Keys {
					if i > 0 && sum.Keys[i-1] >= k {
						t.Fatalf("keys not strictly ascending at %d", i)
					}
					tile := tt.Tiles[k]
					if tile == nil {
						t.Fatalf("summary key %#x missing from tiling", k)
					}
					if int(sum.NNZ[i]) != tile.NNZ() {
						t.Fatalf("tile %#x: summary nnz %d != %d", k, sum.NNZ[i], tile.NNZ())
					}
					if int(sum.Footprint[i]) != tile.Footprint {
						t.Fatalf("tile %#x: summary footprint %d != CSF footprint %d",
							k, sum.Footprint[i], tile.Footprint)
					}
					for l := range sum.Fibers {
						if int(sum.Fibers[l][i]) != tile.CSF.FiberCount(l) {
							t.Fatalf("tile %#x: summary fibers[%d] %d != CSF fiber count %d",
								k, l, sum.Fibers[l][i], tile.CSF.FiberCount(l))
						}
					}
					total += int(sum.Footprint[i])
				}
				if total != sum.TotalFootprint {
					t.Fatalf("footprints sum to %d, TotalFootprint says %d", total, sum.TotalFootprint)
				}
			}
		})
	}
}

// TestTilingNewAllocs is the allocation regression gate for the radix
// group-by tiler: scratch reuse keeps the per-call allocation count
// bounded by tiles and passes, not entries. The ceiling is ~2x the
// measured steady state so legitimate churn does not flake, while a
// return to per-entry or per-comparison allocation blows through it.
func TestTilingNewAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, 2048, 200_000, 1.7)
	for _, tc := range []struct {
		workers int
		ceiling float64
	}{{1, 16000}, {8, 16500}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			avg := testing.AllocsPerRun(2, func() {
				tt, err := NewCtx(context.Background(), m, []int{64, 64}, []int{0, 1}, tc.workers)
				if err != nil || tt.NumTiles() == 0 {
					t.Fatalf("tiling failed: %v", err)
				}
			})
			t.Logf("allocs/op: %.0f", avg)
			if avg > tc.ceiling {
				t.Errorf("NewCtx allocates %.0f times per call, ceiling %.0f", avg, tc.ceiling)
			}
		})
	}
}
