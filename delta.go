package d2t2

import (
	"context"
	"fmt"

	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
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
// be mutated afterwards. The returned report says how many tiles the
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

	// Build the combined tensor first: the Dedup shrink check catches any
	// coordinate collision — delta vs base, intra-delta, or a base that
	// was never Normalized — before statistics work starts.
	// One copy of the base, sized for the delta too; the delta's
	// coordinates were range-checked when they were set.
	concat := t.coo.CloneGrow(delta.coo.NNZ())
	for a := 0; a < n; a++ {
		concat.Crds[a] = append(concat.Crds[a], delta.coo.Crds[a]...)
	}
	concat.Vals = append(concat.Vals, delta.coo.Vals...)
	concat.Dedup()
	if concat.NNZ() != t.coo.NNZ()+delta.coo.NNZ() {
		return nil, nil, fmt.Errorf("d2t2: delta collides on %d coordinates (or an input was not Normalized)",
			t.coo.NNZ()+delta.coo.NNZ()-concat.NNZ())
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
	// Dedup left concat canonical, so neither it nor the new tensor's
	// canonical view scans it again.
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
