package d2t2

import (
	"context"
	"sync"

	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

// sessionMicroDiv is the micro-summary divisor every session collection
// uses — the optimizer's default, so cached statistics are always valid
// for Optimize.
const sessionMicroDiv = 8

// StatsCache is an optional external artifact store a Session consults
// before collecting statistics and updates after — d2t2d plugs its
// content-addressed snapshot cache in here. Keys are content addresses
// (snapshot.StatsKey); implementations must be safe for concurrent use.
// The context is the calling request's: cache implementations that
// reach the network (d2t2d's cluster read-through) bound their I/O with
// it, and must treat a dead context as a miss rather than an error.
// A bundle holds statistics only: the conservative tiling they were
// collected from is never needed again, so it is not handed to the store.
type StatsCache interface {
	LoadStats(ctx context.Context, key string) (*stats.Stats, bool)
	StoreStats(ctx context.Context, key string, s *stats.Stats)
}

// PartialCache is an optional extension of StatsCache for stores that
// can hold mergeable statistics accumulators (stats.Partial) alongside
// finalized bundles. Sessions type-assert their StatsCache against it:
// when present, Delta loads the base tensor's partial instead of
// re-collecting, and stores merged results through StoreMergedStats —
// a distinct entry point from StoreStats so stores that meter fresh
// collections (d2t2d's stats_collect_total counter) do not count a
// merge as a collection. Keys are content addresses
// (snapshot.PartialKey / snapshot.StatsKey).
type PartialCache interface {
	LoadPartial(ctx context.Context, key string) (*stats.Partial, bool)
	StorePartial(ctx context.Context, key string, p *stats.Partial)
	StoreMergedStats(ctx context.Context, key string, s *stats.Stats)
}

// Session is a reusable optimizer context: it memoizes the per-tensor
// tile-and-collect phase so repeated Optimize, Predict and Stats calls
// against the same inputs skip straight to the probabilistic model. With
// an external StatsCache the memo lives (bounded) in the cache;
// otherwise the session keeps collected statistics in-process for its
// lifetime. Tensors handed to a session must not be mutated afterwards
// except through Set, which clears the content address memoized on the
// tensor.
//
// A Session is safe for concurrent use. Concurrent first requests for
// the same tensor may collect twice; collection is deterministic, so
// both arrive at identical statistics.
type Session struct {
	// Workers bounds the worker pool the session's cold pipeline uses for
	// tiling, statistics collection and the shape sweep (0 = all cores).
	// Set it before the session is shared across goroutines; per-call
	// Options.Workers takes precedence when non-zero. Collection is
	// byte-identical at any worker count.
	Workers int

	cache StatsCache
	// calib accumulates calibration residual biases per workload class;
	// shared across the session so repeated Optimize calls with
	// Options.Calibrate converge on the measurement backend.
	calib *model.Calibration

	mu    sync.Mutex
	memo  map[string]*stats.Stats
	pmemo map[string]*stats.Partial
}

// NewSession returns a session backed by the given cache (nil for a
// purely in-process memo).
func NewSession(cache StatsCache) *Session {
	return &Session{
		cache: cache,
		calib: model.NewCalibration(),
		memo:  make(map[string]*stats.Stats),
		pmemo: make(map[string]*stats.Partial),
	}
}

// CalibrationRuns reports how many calibration runs the session has
// accumulated for k's workload class (analytic selects the analytic
// model's class). Useful for deciding whether further Calibrate passes
// are worth their measurement cost.
func (s *Session) CalibrationRuns(k *Kernel, analytic bool) int {
	mode := model.ModeExact
	if analytic {
		mode = model.ModeAnalytic
	}
	return s.calib.Runs(optimizer.CalibClass(k.expr, mode))
}

// CalibrationBias returns the session's learned residual bias for k's
// workload class — 1 when the class was never calibrated, so applying
// it is always safe.
func (s *Session) CalibrationBias(k *Kernel, analytic bool) float64 {
	mode := model.ModeExact
	if analytic {
		mode = model.ModeAnalytic
	}
	return s.calib.Bias(optimizer.CalibClass(k.expr, mode))
}

// TensorID returns the tensor's content address ("sha256:..." of the
// canonical COO encoding), memoized on the tensor.
func (s *Session) TensorID(t *Tensor) (string, error) {
	if id := t.id.Load(); id != nil {
		return *id, nil
	}
	id, err := snapshot.TensorID(t.coo)
	if err != nil {
		return "", err
	}
	t.id.Store(&id)
	return id, nil
}

// TensorArtifact returns the tensor's content address, as TensorID does,
// together with its encoded snapshot tensor artifact; an unmemoized ID
// comes from the same single encode as the artifact, and is memoized.
func (s *Session) TensorArtifact(t *Tensor) (id string, artifact []byte, err error) {
	if p := t.id.Load(); p != nil {
		artifact, err = snapshot.EncodeBytes(&snapshot.Artifact{Tensor: t.coo})
		return *p, artifact, err
	}
	if id, artifact, err = snapshot.TensorArtifact(t.coo); err != nil {
		return "", nil, err
	}
	t.id.Store(&id)
	return id, artifact, nil
}

// statsFor returns the statistics for t at the given base tiling and
// level order, consulting the batch scope (when b is non-nil), then the
// session memo or external cache, before collecting. A cancelled ctx
// aborts the collection (the context's error is returned) without
// storing anything — the memo and cache only ever hold completed
// collections.
func (s *Session) statsFor(ctx context.Context, b *Batch, t *Tensor, tileDims, order []int) (*stats.Stats, error) {
	id, err := s.TensorID(t)
	if err != nil {
		return nil, err
	}
	key := snapshot.StatsKey(id, tileDims, order, sessionMicroDiv)
	if b == nil {
		return s.resolve(ctx, key, t, tileDims, order)
	}
	// Holding the lock across the resolve makes it exactly once per key;
	// it only serializes this batch's own misses, which resolve
	// sequentially anyway.
	b.mu.Lock()
	defer b.mu.Unlock()
	if st := b.bundles[key]; st != nil {
		return st, nil
	}
	st, err := s.resolve(ctx, key, t, tileDims, order)
	if err != nil {
		return nil, err
	}
	b.bundles[key] = st
	return st, nil
}

// resolve returns the bundle stored under key from the session memo or
// external cache, collecting (and storing) it on a miss.
func (s *Session) resolve(ctx context.Context, key string, t *Tensor, tileDims, order []int) (*stats.Stats, error) {
	if s.cache != nil {
		if st, ok := s.cache.LoadStats(ctx, key); ok {
			return st, nil
		}
	} else {
		s.mu.Lock()
		st := s.memo[key]
		s.mu.Unlock()
		if st != nil {
			return st, nil
		}
	}
	p, err := stats.CollectPartialCtx(ctx, t.coo, tileDims, order,
		&stats.Options{MicroDiv: sessionMicroDiv, Workers: s.Workers})
	if err != nil {
		return nil, err
	}
	st, err := p.Finalize()
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.StoreStats(ctx, key, st)
	} else {
		s.mu.Lock()
		s.memo[key] = st
		s.mu.Unlock()
	}
	return st, nil
}

// Optimize runs the D2T2 pipeline like the package-level Optimize, but
// sources per-input statistics through the session: the expensive
// tile-and-collect phase runs at most once per (tensor, base tile,
// level order) across every call sharing the session — warm calls go
// straight to the shape/size search.
func (s *Session) Optimize(k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	return s.OptimizeCtx(context.Background(), k, inputs, opts)
}

// OptimizeCtx is Optimize with cooperative cancellation: a cancelled or
// deadline-expired ctx stops the tile-and-collect phase, the shape
// sweep and the size growth at their next work-item boundary and
// returns the context's error. The d2t2d service routes request
// contexts through here so an abandoned request stops claiming CPU. A
// never-cancelled ctx yields exactly Optimize's byte-identical plan.
func (s *Session) OptimizeCtx(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	return s.optimize(ctx, nil, k, inputs, opts)
}

// optimize is OptimizeCtx with bundles resolved through b (nil for the
// session alone).
func (s *Session) optimize(ctx context.Context, b *Batch, k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	o := opts.lower()
	if o.Workers == 0 {
		o.Workers = s.Workers
	}
	if o.Calibrate {
		// Only calibrated optimizes see the shared residual store: plain
		// requests stay pure functions of their inputs (cacheable).
		o.Calibration = s.calib
	}
	raw := inputs.lower()
	base, err := o.BaseTileFor(k.expr, raw)
	if err != nil {
		return nil, err
	}
	pre, err := s.precollect(ctx, b, k, inputs, base)
	if err != nil {
		return nil, err
	}
	o.Precollected = pre
	res, err := optimizer.OptimizeCtx(ctx, k.expr, raw, o)
	if err != nil {
		return nil, err
	}
	return newPlan(res, k, inputs, o.Workers, o.BufferWords), nil
}

// Batch scopes a group of optimize calls on one Session so they share
// statistics bundles: each distinct (tensor, base tile, level order)
// bundle is resolved — session memo, external cache or a fresh
// collection — at most once per Batch, and every job in the group gets
// the same decoded *stats.Stats, so the jobs' shape searches share its
// EvalShape memo too. A Batch keeps its bundles until it is dropped:
// scope one to a single request, never to the process. It is safe for
// concurrent use; resolve its bundles with PrecollectCtx before fanning
// out, since concurrent misses queue behind one another.
type Batch struct {
	s       *Session
	mu      sync.Mutex
	bundles map[string]*stats.Stats
}

// NewBatch returns an empty batch scope on the session.
func (s *Session) NewBatch() *Batch {
	return &Batch{s: s, bundles: make(map[string]*stats.Stats)}
}

// PrecollectCtx resolves the statistics bundles OptimizeCtx would use
// for k's inputs into the batch — warming the session (and its cache)
// without the shape search. d2t2d's batch endpoint calls this for every
// job before the searches fan out, so each distinct bundle is loaded,
// decoded or collected once per batch however many jobs share it.
func (b *Batch) PrecollectCtx(ctx context.Context, k *Kernel, inputs Inputs, opts Options) error {
	base, err := opts.lower().BaseTileFor(k.expr, inputs.lower())
	if err != nil {
		return err
	}
	_, err = b.s.precollect(ctx, b, k, inputs, base)
	return err
}

// OptimizeCtx is Session.OptimizeCtx with bundles resolved through the
// batch; the plan is byte-identical to the session's.
func (b *Batch) OptimizeCtx(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	return b.s.optimize(ctx, b, k, inputs, opts)
}

// precollect warms and returns the statistics for every distinct input
// of k at an order-matched square base tiling, in the kernel's level
// order for each reference — the exact frame OptimizeCtx consumes.
func (s *Session) precollect(ctx context.Context, b *Batch, k *Kernel, inputs Inputs, base int) (map[string]*stats.Stats, error) {
	pre := make(map[string]*stats.Stats)
	for _, ref := range k.expr.Inputs() {
		if _, done := pre[ref.Name]; done {
			continue
		}
		t, ok := inputs[ref.Name]
		if !ok {
			return nil, errMissing(ref.Name)
		}
		dims := make([]int, len(ref.Indices))
		for a := range dims {
			dims[a] = base
		}
		st, err := s.statsFor(ctx, b, t, dims, k.expr.LevelOrder(ref))
		if err != nil {
			return nil, err
		}
		pre[ref.Name] = st
	}
	return pre, nil
}

// Predict runs the probabilistic traffic model for one tile
// configuration, like the package-level PredictConfig, with statistics
// sourced through the session. Statistics are collected at a
// conservative square tiling of dimension statsTile.
func (s *Session) Predict(k *Kernel, inputs Inputs, cfg TileConfig, statsTile int) (float64, error) {
	return s.PredictCtx(context.Background(), k, inputs, cfg, statsTile)
}

// PredictCtx is Predict with cooperative cancellation of the underlying
// statistics collection (see OptimizeCtx).
func (s *Session) PredictCtx(ctx context.Context, k *Kernel, inputs Inputs, cfg TileConfig, statsTile int) (float64, error) {
	st := make(map[string]*stats.Stats)
	for _, ref := range k.expr.Inputs() {
		if _, done := st[ref.Name]; done {
			continue
		}
		t, ok := inputs[ref.Name]
		if !ok {
			return 0, errMissing(ref.Name)
		}
		dims := clampedSquare(t, statsTile, len(ref.Indices))
		one, err := s.statsFor(ctx, nil, t, dims, k.expr.LevelOrder(ref))
		if err != nil {
			return 0, err
		}
		st[ref.Name] = one
	}
	return predictWithStats(k, cfg, st)
}

// Stats returns the collected statistics summary for one tensor at a
// conservative square tiling (natural level order), cached in the
// session like every other collection.
func (s *Session) Stats(t *Tensor, tile int) (*StatsSummary, error) {
	return s.StatsCtx(context.Background(), t, tile)
}

// StatsCtx is Stats with cooperative cancellation of the underlying
// collection (see OptimizeCtx).
func (s *Session) StatsCtx(ctx context.Context, t *Tensor, tile int) (*StatsSummary, error) {
	dims := clampedSquare(t, tile, t.Order())
	order := make([]int, t.Order())
	for a := range order {
		order[a] = a
	}
	st, err := s.statsFor(ctx, nil, t, dims, order)
	if err != nil {
		return nil, err
	}
	return summarize(st, dims), nil
}

// clampedSquare returns an order-n square tiling of side tile, clamped
// per axis to the tensor's dimensions.
func clampedSquare(t *Tensor, tile, n int) []int {
	dims := make([]int, n)
	for a := range dims {
		dims[a] = tile
		if a < len(t.coo.Dims) && dims[a] > t.coo.Dims[a] {
			dims[a] = t.coo.Dims[a]
		}
	}
	return dims
}
