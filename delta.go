package d2t2

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
)

// DeltaCtx appends a coordinate delta to t and returns the combined
// tensor, with statistics merged instead of re-collected: the session
// loads (or collects once, then caches) the mergeable partial for t at
// the Stats frame — square tiling of side `tile` clamped per axis,
// natural level order — folds the delta in with stats.ApplyDeltaCtx
// (only the touched tiles are re-summarized), finalizes, and stores the
// merged partial and statistics under the new tensor's content address.
// A following StatsCtx, PredictCtx or OptimizeCtx at that frame is warm.
// The merged statistics are byte-identical to a from-scratch collection
// on the combined tensor, at any worker count.
//
// t and delta must be Normalized and must not share coordinates — a
// collision would sum values and invalidate the purely additive entry
// statistics — and, like every tensor handed to a session, neither may
// be mutated afterwards. The combined tensor is built before any
// statistics work, and its build counts the collisions: a canonical t
// is merge-joined with the delta (Dedup'd on its own) into exact-size
// slices, without sorting t; any other t is concatenated with the
// delta and Dedup'd. A collision — delta vs t, within the delta, or a
// duplicate in t — fails the call with the number of entries a Dedup
// would have summed away. The returned report says how many tiles the
// delta touched out of the total, i.e. how much re-collection the merge
// avoided. The combined tensor's ID is memoized, and its encoded
// artifact is kept on it until the first TensorArtifact call takes it.
func (s *Session) DeltaCtx(ctx context.Context, t, delta *Tensor, tile int) (*Tensor, *stats.DeltaReport, error) {
	n := t.Order()
	if delta.Order() != n {
		return nil, nil, fmt.Errorf("d2t2: delta order %d, base order %d", delta.Order(), n)
	}
	for a := 0; a < n; a++ {
		if delta.coo.Dims[a] != t.coo.Dims[a] {
			return nil, nil, fmt.Errorf("d2t2: delta dims %v, base dims %v", delta.coo.Dims, t.coo.Dims)
		}
	}

	// Build the combined tensor first: the collision count catches any
	// coordinate collision — delta vs base, intra-delta, or a base that
	// was never Normalized — before statistics work starts.
	concat, lost := combine(t, delta.coo)
	if lost > 0 {
		return nil, nil, fmt.Errorf("d2t2: delta collides on %d coordinates (or an input was not Normalized)", lost)
	}

	dims := squareTiling(t, tile, n, true)
	order := naturalOrder(n)
	oldID, err := s.TensorID(t)
	if err != nil {
		return nil, nil, err
	}
	oldKey := snapshot.PartialKey(oldID, dims, order, stats.DefaultMicroDiv)
	p, ok := s.cache.LoadPartial(ctx, oldKey)
	if !ok {
		if p, err = s.collect(ctx, t, dims, order); err != nil {
			return nil, nil, err
		}
		s.cache.StorePartial(ctx, oldKey, p)
	}

	merged, rep, err := stats.ApplyDeltaCtx(ctx, p, t.coo, delta.coo, s.Workers)
	if err != nil {
		return nil, nil, err
	}
	st, err := merged.Finalize()
	if err != nil {
		return nil, nil, err
	}

	// One encode gives the new version's ID and its artifact, which the
	// tensor keeps for the caller that registers it (TensorArtifact).
	// concat is canonical, so neither it nor the new tensor's canonical
	// view scans it again.
	newID, artifact, err := snapshot.TensorArtifact(concat)
	if err != nil {
		return nil, nil, err
	}
	nt := FromCOO(concat, newID)
	nt.artifact.Store(&artifact)
	nt.canon.Store(concat)
	s.cache.StorePartial(ctx, snapshot.PartialKey(newID, dims, order, stats.DefaultMicroDiv), merged)
	s.cache.StoreMergedStats(ctx, snapshot.StatsKey(newID, dims, order, stats.DefaultMicroDiv), st)
	return nt, rep, nil
}

// combine returns the canonical union of base's entries and the delta's
// together with lost, the number of entries a Dedup of their
// concatenation sums away: nonzero exactly when the delta collides with
// the base or with itself, or the base holds duplicates. A canonical
// base is merge-joined with the delta; any other is concatenated with
// it and Dedup'd. Either way the union is nil when lost is nonzero.
func combine(base *Tensor, delta *tensor.COO) (union *tensor.COO, lost int) {
	if base.canon.Load() == base.coo || base.coo.Canonical() {
		return mergeJoin(base.coo, delta)
	}
	return concatDedup(base.coo, delta)
}

// concatDedup combines by one copy of the base, sized for the delta
// too, with the delta appended, Dedup'd.
func concatDedup(base, delta *tensor.COO) (*tensor.COO, int) {
	concat := base.CloneGrow(delta.NNZ())
	for a := range concat.Crds {
		concat.Crds[a] = append(concat.Crds[a], delta.Crds[a]...)
	}
	concat.Vals = append(concat.Vals, delta.Vals...)
	concat.Dedup()
	if lost := base.NNZ() + delta.NNZ() - concat.NNZ(); lost > 0 {
		return nil, lost
	}
	return concat, 0
}

// mergeJoin combines a canonical base with the delta, Dedup'd on its
// own (a clone: the delta is small), without sorting the base: each
// delta entry's place in the base is found by binary search, a base
// entry at that place is a collision, and the union is the base's runs
// between those places copied into exact-size slices with the delta
// entries between them — the entries, in the order, a Dedup of the
// concatenation leaves.
func mergeJoin(base, delta *tensor.COO) (*tensor.COO, int) {
	d := delta.Clone()
	d.Dedup()
	lost := delta.NNZ() - d.NNZ()
	// at[j] is the number of base entries before delta entry j.
	at := make([]int, d.NNZ())
	from := 0
	for j := range at {
		at[j] = from + sort.Search(base.NNZ()-from, func(i int) bool {
			return !lessAcross(base, from+i, d, j)
		})
		if at[j] < base.NNZ() && !lessAcross(d, j, base, at[j]) {
			lost++
		}
		from = at[j]
	}
	if lost > 0 {
		return nil, lost
	}
	m := base.NNZ() + d.NNZ()
	out := &tensor.COO{Dims: slices.Clone(base.Dims), Crds: make([][]int, len(base.Dims))}
	for a := range out.Crds {
		out.Crds[a] = interleave(make([]int, m), base.Crds[a], d.Crds[a], at)
	}
	out.Vals = interleave(make([]float64, m), base.Vals, d.Vals, at)
	return out, 0
}

// lessAcross reports whether entry p of x precedes entry q of y in
// natural axis order.
func lessAcross(x *tensor.COO, p int, y *tensor.COO, q int) bool {
	for a := range x.Crds {
		if c, e := x.Crds[a][p], y.Crds[a][q]; c != e {
			return c < e
		}
	}
	return false
}

// interleave fills dst with src, inserting ins[j] before src[at[j]].
func interleave[T any](dst, src, ins []T, at []int) []T {
	w, from := 0, 0
	for j, i := range at {
		w += copy(dst[w:], src[from:i])
		dst[w] = ins[j]
		w++
		from = i
	}
	copy(dst[w:], src[from:])
	return dst
}
