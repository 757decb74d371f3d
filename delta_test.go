package d2t2

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"d2t2/internal/tensor"
)

// TestDeltaMergeJoinMatchesDedup checks the merge-join that combines a
// canonical base with a delta against the concatenation Dedup it
// replaced: random canonical bases of order 2 and 3, with unsorted
// deltas that carry intra-delta duplicates, base collisions, both or
// neither. The union must match bit for bit (values include signed
// zeros and NaNs), the lost-entry count must match, and DeltaCtx must
// answer a collision with the same error text.
func TestDeltaMergeJoinMatchesDedup(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := []float64{1.5, -2, math.Copysign(0, -1), 0, math.NaN(), 3e-300}
	random := func(dims []int, nnz int) *tensor.COO {
		x := tensor.New(dims...)
		c := make([]int, len(dims))
		for p := 0; p < nnz; p++ {
			for a, d := range dims {
				c[a] = r.Intn(d)
			}
			x.Append(c, vals[r.Intn(len(vals))])
		}
		return x
	}
	kinds := []struct {
		name          string
		dups, collide bool
	}{{"clean", false, false}, {"intra-dups", true, false}, {"collisions", false, true}, {"both", true, true}}
	for trial := 0; trial < 200; trial++ {
		kind := kinds[trial%len(kinds)]
		dims := []int{1 + r.Intn(40), 1 + r.Intn(40)}
		if trial%2 == 1 {
			dims = append(dims, 1+r.Intn(12))
		}
		base := random(dims, r.Intn(300))
		base.Dedup()
		// The delta draws fresh coordinates, then plants the asked-for
		// faults at random places, so it arrives unsorted.
		delta := tensor.New(dims...)
		fresh := random(dims, 1+r.Intn(24))
		fresh.Dedup()
		for p := 0; p < fresh.NNZ(); p++ {
			if c := fresh.At(p); !holds(base, c) {
				delta.Append(c, fresh.Vals[p])
			}
		}
		if kind.dups && delta.NNZ() > 0 {
			delta.Append(delta.At(r.Intn(delta.NNZ())), vals[r.Intn(len(vals))])
		}
		if kind.collide && base.NNZ() > 0 {
			delta.Append(base.At(r.Intn(base.NNZ())), vals[r.Intn(len(vals))])
		}
		perm := r.Perm(delta.NNZ())
		shuffled := tensor.New(dims...)
		for _, p := range perm {
			shuffled.Append(delta.At(p), delta.Vals[p])
		}
		delta = shuffled

		got, gotLost := mergeJoin(base, delta)
		want, wantLost := concatDedup(base, delta)
		name := fmt.Sprintf("trial %d (%s, dims %v, base %d, delta %d)", trial, kind.name, dims, base.NNZ(), delta.NNZ())
		if gotLost != wantLost {
			t.Fatalf("%s: merge-join loses %d entries, concatenation Dedup %d", name, gotLost, wantLost)
		}
		if wantLost == 0 && !sameEntries(got, want) {
			t.Fatalf("%s: merge-join union differs from the concatenation Dedup", name)
		}
		if (wantLost > 0) != (kind.dups && delta.NNZ() > 1 || kind.collide && base.NNZ() > 0) {
			t.Fatalf("%s: %d entries lost, not what the planted faults give", name, wantLost)
		}

		if wantLost > 0 && trial%8 < 4 {
			bt, dt := FromCOO(base, ""), FromCOO(delta, "")
			bt.Normalize()
			_, _, err := NewSession(nil).DeltaCtx(context.Background(), bt, dt, 8)
			wantErr := fmt.Sprintf("d2t2: delta collides on %d coordinates (or an input was not Normalized)", wantLost)
			if err == nil || err.Error() != wantErr {
				t.Fatalf("%s: DeltaCtx error %v, want %q", name, err, wantErr)
			}
		}
	}
}

// TestDeltaCombinesNonCanonicalBase checks that a base that is not
// canonical — unsorted, or holding a duplicate — is combined by the
// concatenation Dedup, so its duplicate still counts as a collision.
func TestDeltaCombinesNonCanonicalBase(t *testing.T) {
	unsorted := NewTensor(4, 4)
	unsorted.Set([]int{2, 2}, 1)
	unsorted.Set([]int{0, 1}, 2)
	delta := tensor.New(4, 4)
	delta.Append([]int{1, 3}, 3)
	got, lost := combine(unsorted, delta)
	want, _ := concatDedup(unsorted.coo, delta)
	if lost != 0 || !sameEntries(got, want) {
		t.Fatalf("unsorted base: lost %d, union %v, want %v", lost, got, want)
	}
	unsorted.Set([]int{2, 2}, 4)
	if _, lost := combine(unsorted, delta); lost != 1 {
		t.Fatalf("base with a duplicate: %d entries lost, want 1", lost)
	}
}

// holds reports whether x stores an entry at c.
func holds(x *tensor.COO, c []int) bool {
	for p := 0; p < x.NNZ(); p++ {
		if slices.Equal(x.At(p), c) {
			return true
		}
	}
	return false
}

// sameEntries reports whether two tensors hold the same dims, the same
// coordinates in the same order, and values with the same bits.
func sameEntries(a, b *tensor.COO) bool {
	if !slices.Equal(a.Dims, b.Dims) || a.NNZ() != b.NNZ() {
		return false
	}
	for ax := range a.Crds {
		if !slices.Equal(a.Crds[ax], b.Crds[ax]) {
			return false
		}
	}
	for p := range a.Vals {
		if math.Float64bits(a.Vals[p]) != math.Float64bits(b.Vals[p]) {
			return false
		}
	}
	return true
}
