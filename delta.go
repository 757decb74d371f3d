package d2t2

import (
	"context"
	"fmt"

	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

// Delta is DeltaCtx with a background context.
func (s *Session) Delta(t, delta *Tensor, tile int) (*Tensor, *stats.DeltaReport, error) {
	return s.DeltaCtx(context.Background(), t, delta, tile)
}

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
	concat := t.coo.Clone()
	coord := make([]int, n)
	for pos := 0; pos < delta.coo.NNZ(); pos++ {
		for a := 0; a < n; a++ {
			coord[a] = delta.coo.Crds[a][pos]
		}
		concat.Append(coord, delta.coo.Vals[pos])
	}
	concat.Dedup()
	if concat.NNZ() != t.coo.NNZ()+delta.coo.NNZ() {
		return nil, nil, fmt.Errorf("d2t2: delta collides on %d coordinates (or an input was not Normalized)",
			t.coo.NNZ()+delta.coo.NNZ()-concat.NNZ())
	}

	dims := clampedSquare(t, tile, n)
	order := make([]int, n)
	for a := range order {
		order[a] = a
	}
	oldID, err := s.TensorID(t)
	if err != nil {
		return nil, nil, err
	}
	oldKey := snapshot.PartialKey(oldID, dims, order, sessionMicroDiv)
	p := s.loadPartial(ctx, oldKey)
	if p == nil {
		p, err = stats.CollectPartialCtx(ctx, t.coo, dims, order,
			&stats.Options{MicroDiv: sessionMicroDiv, Workers: s.Workers})
		if err != nil {
			return nil, nil, err
		}
		s.storePartial(ctx, oldKey, p)
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
	newID, artifact, err := snapshot.TensorArtifact(concat)
	if err != nil {
		return nil, nil, err
	}
	nt := FromCOO(concat)
	nt.id.Store(&newID)
	nt.artifact.Store(&artifact)
	s.storePartial(ctx, snapshot.PartialKey(newID, dims, order, sessionMicroDiv), merged)
	s.storeMergedStats(ctx, snapshot.StatsKey(newID, dims, order, sessionMicroDiv), st)
	return nt, rep, nil
}

// loadPartial consults the cache's PartialCache extension when present,
// the in-process partial memo otherwise. A nil return is a miss.
func (s *Session) loadPartial(ctx context.Context, key string) *stats.Partial {
	if pc, ok := s.cache.(PartialCache); ok {
		if p, ok := pc.LoadPartial(ctx, key); ok {
			return p
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pmemo[key]
}

func (s *Session) storePartial(ctx context.Context, key string, p *stats.Partial) {
	if pc, ok := s.cache.(PartialCache); ok {
		pc.StorePartial(ctx, key, p)
		return
	}
	s.mu.Lock()
	s.pmemo[key] = p
	s.mu.Unlock()
}

// storeMergedStats records finalized merged statistics so later lookups
// at the same frame are warm. It routes through StoreMergedStats when
// the cache offers it (so stores metering fresh collections don't count
// a merge), plain StoreStats otherwise.
func (s *Session) storeMergedStats(ctx context.Context, key string, st *stats.Stats) {
	if pc, ok := s.cache.(PartialCache); ok {
		pc.StoreMergedStats(ctx, key, st)
		return
	}
	if s.cache != nil {
		s.cache.StoreStats(ctx, key, st)
		return
	}
	s.mu.Lock()
	s.memo[key] = st
	s.mu.Unlock()
}
