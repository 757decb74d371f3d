package radix

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestSortMatchesStableSort checks Sort against a stable comparison
// sort, carrying each key's input position as its value, across key
// widths that take zero to six digit passes.
func TestSortMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, width := range []uint{0, 1, 11, 12, 33, 64} {
		for _, n := range []int{0, 1, 7, 1000} {
			keys := make([]uint64, n)
			vals := make([]int32, n)
			for i := range keys {
				keys[i] = r.Uint64() >> (64 - width) &^ 1 // even keys only: more ties
				vals[i] = int32(i)
			}
			type kv struct {
				k uint64
				v int32
			}
			want := make([]kv, n)
			for i := range keys {
				want[i] = kv{keys[i], vals[i]}
			}
			slices.SortStableFunc(want, func(a, b kv) int { return cmp.Compare(a.k, b.k) })

			gotK, gotV := Sort(keys, make([]uint64, n), vals, make([]int32, n))
			for i := range want {
				if gotK[i] != want[i].k || gotV[i] != want[i].v {
					t.Fatalf("width=%d n=%d: position %d = (%d,%d), want (%d,%d)",
						width, n, i, gotK[i], gotV[i], want[i].k, want[i].v)
				}
			}
		}
	}
}
