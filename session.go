package d2t2

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"sync"

	"d2t2/internal/einsum"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/par"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

// StatsCache is the store a Session resolves statistics through: it
// consults the store before collecting and updates it after. d2t2d plugs
// its content-addressed snapshot store in here; NewSession(nil) keeps
// everything in process. Keys are content addresses (snapshot.StatsKey
// for finalized bundles, snapshot.PartialKey for the mergeable
// accumulators DeltaCtx reuses); implementations must be safe for
// concurrent use. The context is the calling request's: stores that
// reach the network (d2t2d's cluster read-through) bound their I/O with
// it, and must treat a dead context as a miss rather than an error.
//
// A bundle holds statistics only: the conservative tiling they were
// collected from is never needed again, so it is not handed to the
// store. StoreStats follows a fresh collection and StoreMergedStats a
// DeltaCtx merge, so stores that meter collections (d2t2d's
// stats_collect_total counter) do not count a merge as one.
type StatsCache interface {
	LoadStats(ctx context.Context, key string) (*stats.Stats, bool)
	StoreStats(ctx context.Context, key string, s *stats.Stats)
	LoadPartial(ctx context.Context, key string) (*stats.Partial, bool)
	StorePartial(ctx context.Context, key string, p *stats.Partial)
	StoreMergedStats(ctx context.Context, key string, s *stats.Stats)
}

// memCache is the StatsCache of NewSession(nil): every bundle and
// partial the session produced, kept for its lifetime. Bundle and
// partial keys never collide, so one map holds both.
type memCache struct{ m sync.Map }

func (c *memCache) LoadStats(_ context.Context, key string) (*stats.Stats, bool) {
	v, _ := c.m.Load(key)
	st, ok := v.(*stats.Stats)
	return st, ok
}

func (c *memCache) LoadPartial(_ context.Context, key string) (*stats.Partial, bool) {
	v, _ := c.m.Load(key)
	p, ok := v.(*stats.Partial)
	return p, ok
}

func (c *memCache) StoreStats(_ context.Context, key string, st *stats.Stats) {
	c.m.Store(key, st)
}

func (c *memCache) StoreMergedStats(_ context.Context, key string, st *stats.Stats) {
	c.m.Store(key, st)
}

func (c *memCache) StorePartial(_ context.Context, key string, p *stats.Partial) {
	c.m.Store(key, p)
}

// Session is a reusable optimizer context: it memoizes the per-tensor
// tile-and-collect phase in its StatsCache, so repeated OptimizeCtx,
// PredictCtx and StatsCtx calls against the same inputs skip straight to the
// probabilistic model. Tensors handed to a session must not be mutated
// afterwards except through Set, which clears the content address and
// the canonical view memoized on the tensor. A session reads every
// tensor through its canonical view, so a tensor holding duplicate
// coordinates and its Normalized clone share one content address and
// give identical statistics, predictions and plans.
//
// A Session is safe for concurrent use. Concurrent first requests for
// the same tensor outside one Batch may collect twice; collection is
// deterministic, so both arrive at identical statistics.
type Session struct {
	// Workers bounds the worker pool the session's cold pipeline uses for
	// tiling, statistics collection and the shape sweep (0 = all cores).
	// Set it before the session is shared across goroutines; per-call
	// Options.Workers takes precedence when non-zero. Collection is
	// byte-identical at any worker count.
	Workers int

	cache StatsCache
	// calib accumulates calibration residual biases per workload class;
	// shared across the session so repeated OptimizeCtx calls with
	// Options.Calibrate converge on the measurement backend.
	calib *model.Calibration
}

// NewSession returns a session backed by the given cache (nil for an
// in-process store that lives as long as the session).
func NewSession(cache StatsCache) *Session {
	if cache == nil {
		cache = &memCache{}
	}
	return &Session{cache: cache, calib: model.NewCalibration()}
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
func (s *Session) TensorID(t *Tensor) (string, error) { return t.contentID() }

// contentID is TensorID without a session: the address depends on the
// tensor alone.
func (t *Tensor) contentID() (string, error) {
	if id := t.id.Load(); id != nil {
		return *id, nil
	}
	id, err := snapshot.TensorID(t.canonical())
	if err != nil {
		return "", err
	}
	t.id.Store(&id)
	return id, nil
}

// TensorArtifact returns the tensor's content address, as TensorID does,
// together with its encoded snapshot tensor artifact; an unmemoized ID
// comes from the same single encode as the artifact, and is memoized.
// A tensor DeltaCtx returned hands over the artifact encoded with its
// ID on the first call, so it is not encoded again.
func (s *Session) TensorArtifact(t *Tensor) (id string, artifact []byte, err error) {
	if p := t.id.Load(); p != nil {
		if a := t.artifact.Swap(nil); a != nil {
			return *p, *a, nil
		}
		artifact, err = snapshot.EncodeBytes(&snapshot.Artifact{Tensor: t.canonical()})
		return *p, artifact, err
	}
	if id, artifact, err = snapshot.TensorArtifact(t.canonical()); err != nil {
		return "", nil, err
	}
	t.id.Store(&id)
	return id, artifact, nil
}

// resolve returns the bundle stored under key in the session's store,
// collecting (and storing) it on a miss. A cancelled ctx aborts the
// collection (the context's error is returned) without storing
// anything: the store only ever holds completed collections.
func (s *Session) resolve(ctx context.Context, key string, t *Tensor, tileDims, order []int) (*stats.Stats, error) {
	if st, ok := s.cache.LoadStats(ctx, key); ok {
		return st, nil
	}
	st, err := stats.CollectFinalizedCtx(ctx, t.canonical(), tileDims, order, &stats.Options{Workers: s.Workers})
	if err != nil {
		return nil, err
	}
	s.cache.StoreStats(ctx, key, st)
	return st, nil
}

// collect gathers t's mergeable statistics at the given base tiling and
// level order, in the session's collection frame.
func (s *Session) collect(ctx context.Context, t *Tensor, tileDims, order []int) (*stats.Partial, error) {
	return stats.CollectPartialCtx(ctx, t.canonical(), tileDims, order, &stats.Options{Workers: s.Workers})
}

// OptimizeCtx runs the D2T2 pipeline like the package-level
// OptimizeCtx, but sources per-input statistics through the session:
// the expensive tile-and-collect phase runs at most once per (tensor,
// base tile, level order) across every call sharing the session — warm
// calls go straight to the shape/size search. A cancelled or
// deadline-expired ctx stops the tile-and-collect phase, the shape
// sweep and the size growth at their next work-item boundary and
// returns the context's error. The d2t2d service routes request
// contexts through here so an abandoned request stops claiming CPU.
func (s *Session) OptimizeCtx(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	return s.NewBatch().OptimizeCtx(ctx, k, inputs, opts)
}

// Batch scopes a group of optimize calls on one Session so they share
// statistics bundles and predictors: each distinct (tensor, base tile,
// level order) bundle is resolved — session store or a fresh
// collection — at most once per Batch, and every job in the group gets
// the same decoded *stats.Stats, so the jobs' shape searches share its
// EvalShape memo too. Jobs of one kernel over the same bundles, in the
// same mode and ablations, share one model predictor, whose prediction
// table the group's first bundle keeps: a config any of them prices is
// priced once for all, and for every later batch that resolves the same
// resident bundle. Calibrated jobs never share a predictor. A Batch
// keeps its bundles and predictors until it is dropped: scope one to a
// single request, never to the process. It is safe for concurrent use:
// concurrent askers of one bundle or predictor wait for a single
// resolve.
type Batch struct {
	s       *Session
	bundles par.Memo[string, *stats.Stats]
	preds   par.Memo[string, *model.Predictor]
}

// NewBatch returns an empty batch scope on the session.
func (s *Session) NewBatch() *Batch { return &Batch{s: s} }

// OptimizeCtx is Session.OptimizeCtx with bundles and predictors shared
// through the batch; the plan is byte-identical to the session's.
func (b *Batch) OptimizeCtx(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	o := opts.lower()
	if o.Workers == 0 {
		o.Workers = b.s.Workers
	}
	if o.Calibrate {
		// Only calibrated optimizes see the shared residual store: plain
		// requests stay pure functions of their inputs (cacheable).
		o.Calibration = b.s.calib
	}
	raw := inputs.lower()
	base, err := o.BaseTileFor(k.expr, raw)
	if err != nil {
		return nil, err
	}
	pre, bundles, err := b.precollect(ctx, k, inputs, base, false)
	if err != nil {
		return nil, err
	}
	o.Precollected = pre
	if !o.Calibrate {
		if o.Predictor, err = b.predictor(k, pre, bundles, o); err != nil {
			return nil, err
		}
	}
	res, err := optimizer.OptimizeCtx(ctx, k.expr, raw, o)
	if err != nil {
		return nil, err
	}
	return newPlan(res, k, inputs, o.Workers, o.BufferWords), nil
}

// optimizeDataflow is OptimizeDataflow on the batch: every order runs
// through it, so orders that store an input in the same level order
// share that input's bundle.
func (b *Batch) optimizeDataflow(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, []string, error) {
	var best *Plan
	for _, order := range k.expr.OrderPermutations() {
		e, err := k.expr.WithOrder(order)
		if err != nil {
			return nil, nil, err
		}
		p, err := b.OptimizeCtx(ctx, newKernel(e), inputs, opts)
		if err != nil {
			return nil, nil, err
		}
		if best == nil || p.PredictedMB < best.PredictedMB { // first strict minimum
			best = p
		}
	}
	return best, append([]string(nil), best.kernel.expr.Order...), nil
}

// precollect resolves into the batch, and returns the statistics of
// every distinct input of k in the kernel's level order for its first
// reference, at a square base tiling of side tile (clamped per axis to
// the tensor when clamp is set), together with their content addresses
// joined in input order. Unclamped is the exact frame OptimizeCtx
// consumes. Inputs that name one tensor in one level order are one
// bundle. A bundle the batch holds already is read on this goroutine;
// the rest resolve concurrently when two or more are left.
func (b *Batch) precollect(ctx context.Context, k *Kernel, inputs Inputs, tile int, clamp bool) (map[string]*stats.Stats, string, error) {
	var refs []einsum.Ref
	for _, ref := range k.expr.Inputs() {
		if !slices.ContainsFunc(refs, func(r einsum.Ref) bool { return r.Name == ref.Name }) {
			refs = append(refs, ref)
		}
	}
	// bundles lists the first ref of each bundle, and ref i reads the
	// bundle of ref first[i].
	var bundles []int
	first := make([]int, len(refs))
	tilings := make([][]int, len(refs))
	orders := make([][]int, len(refs))
	for i, ref := range refs {
		t := inputs[ref.Name]
		if t != nil {
			tilings[i] = squareTiling(t, tile, len(ref.Indices), clamp)
		}
		orders[i] = k.expr.LevelOrder(ref)
		first[i] = i
		for _, j := range bundles {
			if t != nil && inputs[refs[j].Name] == t && slices.Equal(tilings[j], tilings[i]) && slices.Equal(orders[j], orders[i]) {
				first[i] = j
				break
			}
		}
		if first[i] == i {
			bundles = append(bundles, i)
		}
	}
	keys := make([]string, len(refs))
	sts := make([]*stats.Stats, len(refs))
	err := par.ForEachMissCtx(ctx, b.s.Workers, len(bundles), func(j int, hitsOnly bool) (bool, error) {
		i := bundles[j]
		t, ok := inputs[refs[i].Name]
		if !ok {
			return true, errMissing(refs[i].Name)
		}
		if !hitsOnly {
			var err error
			sts[i], keys[i], err = b.statsFor(ctx, t, tilings[i], orders[i])
			return true, err
		}
		id := t.id.Load()
		if id == nil {
			return false, nil
		}
		keys[i] = snapshot.StatsKey(*id, tilings[i], orders[i], stats.DefaultMicroDiv)
		sts[i], ok = b.bundles.Landed(keys[i])
		return ok, nil
	})
	if err != nil {
		return nil, "", err
	}
	pre := make(map[string]*stats.Stats, len(refs))
	var sb strings.Builder
	for i, ref := range refs {
		pre[ref.Name] = sts[first[i]]
		sb.WriteString(keys[first[i]])
		sb.WriteByte('\n')
	}
	return pre, sb.String(), nil
}

// statsFor returns the statistics for t at the given base tiling and
// level order, and their content address, resolved through the
// session's store once per batch.
func (b *Batch) statsFor(ctx context.Context, t *Tensor, tileDims, order []int) (*stats.Stats, string, error) {
	id, err := b.s.TensorID(t)
	if err != nil {
		return nil, "", err
	}
	key := snapshot.StatsKey(id, tileDims, order, stats.DefaultMicroDiv)
	st, err := b.bundles.Do(key, 0, func() (*stats.Stats, error) {
		return b.s.resolve(ctx, key, t, tileDims, order)
	})
	return st, key, err
}

// predictor returns the batch group's shared predictor for an
// uncalibrated optimization of k over the bundles pre, whose content
// addresses are bundles, building it on the group's first ask. The
// group's key names it by content: the kernel with its loop order, the
// bundles' addresses in input order, and the options the predictor is
// built with. The predictor keeps its predictions on the group's first
// input bundle under that key, so they outlive the batch.
func (b *Batch) predictor(k *Kernel, pre map[string]*stats.Stats, bundles string, o optimizer.Options) (*model.Predictor, error) {
	key := k.str + "\n" + bundles + strconv.Itoa(int(o.Mode)) + " " +
		strconv.FormatBool(o.DisableCorrs) + " " + strconv.FormatBool(o.DisableRefinement)
	return b.preds.Do(key, 0, func() (*model.Predictor, error) {
		p, err := o.NewPredictor(k.expr, pre)
		if err != nil {
			return nil, err
		}
		p.KeepOn(pre[k.expr.Inputs()[0].Name], key)
		return p, nil
	})
}

// PredictCtx runs the probabilistic traffic model for one tile
// configuration, like the package-level PredictConfig, with statistics
// sourced through the session. Statistics are collected at a
// conservative square tiling of dimension statsTile, clamped per axis to
// each tensor; an input referenced twice is collected in the level
// order of its first reference. ctx cancels the underlying statistics
// collection (see OptimizeCtx).
func (s *Session) PredictCtx(ctx context.Context, k *Kernel, inputs Inputs, cfg TileConfig, statsTile int) (float64, error) {
	st, _, err := s.NewBatch().precollect(ctx, k, inputs, statsTile, true)
	if err != nil {
		return 0, err
	}
	pred, err := model.New(k.expr, st)
	if err != nil {
		return 0, err
	}
	p, err := pred.Predict(model.Config(cfg))
	if err != nil {
		return 0, err
	}
	return p.Total() * 4 / (1 << 20), nil
}

// StatsCtx returns the collected statistics summary for one tensor at
// a conservative square tiling (natural level order), cached in the
// session like every other collection. ctx cancels the underlying
// collection (see OptimizeCtx).
func (s *Session) StatsCtx(ctx context.Context, t *Tensor, tile int) (*StatsSummary, error) {
	dims := squareTiling(t, tile, t.Order(), true)
	st, _, err := s.NewBatch().statsFor(ctx, t, dims, naturalOrder(t.Order()))
	if err != nil {
		return nil, err
	}
	return summarize(st, dims), nil
}

// squareTiling returns an order-n square tiling of side tile, clamped
// per axis to the tensor's dimensions when clamp is set.
func squareTiling(t *Tensor, tile, n int, clamp bool) []int {
	dims := make([]int, n)
	for a := range dims {
		dims[a] = tile
		if clamp && a < len(t.coo.Dims) {
			dims[a] = min(tile, t.coo.Dims[a])
		}
	}
	return dims
}

// naturalOrder is the level order 0, 1, ..., n-1.
func naturalOrder(n int) []int {
	order := make([]int, n)
	for a := range order {
		order[a] = a
	}
	return order
}
