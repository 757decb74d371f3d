package tiling

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/radix"
	"d2t2/internal/tensor"
)

// TestNewCtxCancellation checks that a dead context aborts group-by
// tiling with the context's error.
func TestNewCtxCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m := gen.PowerLawGraph(r, 256, 4000, 1.5)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tt, err := NewCtx(ctx, m, []int{16, 16}, []int{1, 0}, 4); tt != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", tt, err)
	}
}

// TestNewParallelMatchesSerial checks the tentpole invariant: the tiled
// tensor is identical — tiles, CSFs, footprints, outer CSF — at every
// worker count, across 2D and 3D tensors and permuted level orders.
func TestNewParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		build func() (*TiledTensor, *TiledTensor, error)
	}{
		{"2d", func() (*TiledTensor, *TiledTensor, error) {
			m := gen.PowerLawGraph(r, 256, 4000, 1.5)
			a, err := NewCtx(context.Background(), m, []int{16, 16}, []int{1, 0}, 1)
			if err != nil {
				return nil, nil, err
			}
			b, err := NewCtx(context.Background(), m, []int{16, 16}, []int{1, 0}, 8)
			return a, b, err
		}},
		{"3d", func() (*TiledTensor, *TiledTensor, error) {
			m := gen.RandomTensor3(r, 40, 50, 60, 2000, [3]float64{0, 0.5, 0})
			a, err := NewCtx(context.Background(), m, []int{8, 8, 8}, []int{2, 0, 1}, 1)
			if err != nil {
				return nil, nil, err
			}
			b, err := NewCtx(context.Background(), m, []int{8, 8, 8}, []int{2, 0, 1}, 8)
			return a, b, err
		}},
	}
	// Each side of the grouping's branches (branchCases): the canonical
	// tensor at one worker against its shuffled copy at eight, so the
	// skipped per-tile sort is pinned to the sorting path.
	for _, bc := range branchCases(r) {
		cases = append(cases, struct {
			name  string
			build func() (*TiledTensor, *TiledTensor, error)
		}{bc.name, func() (*TiledTensor, *TiledTensor, error) {
			a, err := NewCtx(context.Background(), bc.m, bc.tile, bc.order, 1)
			if err != nil {
				return nil, nil, err
			}
			b, err := NewCtx(context.Background(), shuffled(r, bc.m), bc.tile, bc.order, 8)
			return a, b, err
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("tiled tensors differ between Workers=1 and Workers=8")
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSortedKeysOrder pins the SortedKeys contract after the
// single-decode rewrite: keys come back ordered by outer coordinates
// compared level by level in tt.Order.
func TestSortedKeysOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := gen.UniformRandom(r, 90, 70, 500)
	tt, err := NewCtx(context.Background(), m, []int{8, 8}, []int{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := tt.SortedKeys()
	if len(keys) != len(tt.Tiles) {
		t.Fatalf("got %d keys for %d tiles", len(keys), len(tt.Tiles))
	}
	for i := 1; i < len(keys); i++ {
		ca, cb := tt.Tiles[keys[i-1]].Outer, tt.Tiles[keys[i]].Outer
		less := false
		for _, ax := range tt.Order {
			if ca[ax] != cb[ax] {
				less = ca[ax] < cb[ax]
				break
			}
		}
		if !less {
			t.Fatalf("keys out of order at %d: %v then %v", i, ca, cb)
		}
	}
}

// branchCase is a tiling input that reaches one side of each of the
// grouping's branches (see branchCases).
type branchCase struct {
	name  string
	m     *tensor.COO
	tile  []int
	order []int
	// dense and sorted are the branches the canonical input takes: a
	// counting pass (else a radix sort), and no per-tile sort.
	dense, sorted bool
}

// branchCases returns canonical inputs covering both sides of the
// grouping's two branches; their shuffled copies (shuffled) take the
// per-tile sort.
func branchCases(r *rand.Rand) []branchCase {
	m := gen.PowerLawGraph(r, 256, 4000, 1.5)
	x := gen.RandomTensor3(r, 40, 50, 60, 2000, [3]float64{0, 0.5, 0})
	sparse := gen.PowerLawGraph(r, 4096, 3000, 1.5)
	return []branchCase{
		{"natural-dense", m, []int{16, 16}, nil, true, true},
		{"permuted-dense", m, []int{16, 16}, []int{1, 0}, true, false},
		{"natural-dense-3d", x, []int{4, 5, 6}, nil, true, true},
		{"natural-sparse", sparse, []int{4, 4}, nil, false, true},
		{"permuted-sparse", sparse, []int{4, 4}, []int{1, 0}, false, false},
	}
}

// shuffled returns a copy of t with its entries in random order: the
// same tensor, duplicate-free, not canonical.
func shuffled(r *rand.Rand, t *tensor.COO) *tensor.COO {
	c := t.Clone()
	r.Shuffle(c.NNZ(), func(p, q int) {
		for _, crd := range c.Crds {
			crd[p], crd[q] = crd[q], crd[p]
		}
		c.Vals[p], c.Vals[q] = c.Vals[q], c.Vals[p]
	})
	return c
}

// TestGroupingBranches checks that each branchCases input reaches the
// branches it names, and that the counting pass and the radix sort
// group its keys identically.
func TestGroupingBranches(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, bc := range branchCases(r) {
		order, grid, _, err := validateTiling(bc.m, bc.tile, bc.order)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := groupByOuter(context.Background(), bc.m, bc.tile, order, grid, 2)
		if err != nil {
			t.Fatal(err)
		}
		if dense := radix.Dense(grid.Size(), bc.m.NNZ()); dense != bc.dense || gr.sorted != bc.sorted {
			t.Fatalf("%s: dense %v sorted %v, want %v %v", bc.name, dense, gr.sorted, bc.dense, bc.sorted)
		}
		if sh, err := groupByOuter(context.Background(), shuffled(r, bc.m), bc.tile, order, grid, 2); err != nil || sh.sorted {
			t.Fatalf("%s: shuffled input sorted %v, err %v", bc.name, sh != nil && sh.sorted, err)
		}
		keys := make([]uint64, bc.m.NNZ())
		oc := make([]int, bc.m.Order())
		for p := range keys {
			for a, crd := range bc.m.Crds {
				oc[a] = crd[p] / bc.tile[a]
			}
			keys[p], _ = grid.Encode(oc)
		}
		var counted, sorted grouping
		counted.countGroups(keys, grid.Size())
		sorted.sortGroups(slices.Clone(keys))
		if !reflect.DeepEqual(counted, sorted) || !reflect.DeepEqual(counted.starts, gr.starts) || !reflect.DeepEqual(counted.entOf, gr.entOf) {
			t.Fatalf("%s: counting and radix groupings differ", bc.name)
		}
	}
}
