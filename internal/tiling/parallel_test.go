package tiling

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"d2t2/internal/gen"
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
