// Package optimizer implements D2T2's tiling scheme optimizer (paper
// §5.2) — the top of the toolchain in Figure 1. Given a kernel, its input
// tensors and a buffer budget it:
//
//  1. Tiles the inputs with the Conservative square configuration.
//  2. Collects the Tile Statistics (package stats).
//  3. Sweeps tile *shapes* at constant area — the reorder-factor (RF)
//     family {i: T·RF, k: T/RF} of Eq. 21 — and picks the shape whose
//     predicted traffic (package model) is minimal.
//  4. Conservatively grows tile *size*: starting from the TileFactor
//     bound of Eq. 22 (buffer / max occupied tile), output-index tile
//     dimensions are doubled greedily while every input's largest actual
//     tile still fits in the buffer.
//
// The result is a static, non-uniform rectangular configuration that is
// guaranteed to fit the input buffer — no specialized hardware needed.
// Under a positive Options.OverflowTarget, steps 3 and 4 run the
// risk-aware sizing rule instead (type sizing, DESIGN.md §18).
package optimizer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"d2t2/internal/einsum"
	"d2t2/internal/model"
	"d2t2/internal/par"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Options configures the optimizer. Zero values select defaults.
type Options struct {
	// BufferWords is the accelerator input-buffer capacity in 4-byte
	// words. Required.
	BufferWords int
	// RFs are the candidate reorder factors (default ¼, ½, 1, 2, 4, 8).
	// Values > 1 grow the primary output index and shrink the contracted
	// index; values < 1 do the opposite.
	RFs []float64
	// Mode selects the statistics evaluation mode (default ModeExact).
	Mode model.Mode
	// DisableCorrs turns off the Corrs output-reuse discount (Fig. 9
	// ablation "w/o Correlations").
	DisableCorrs bool
	// CorrsOnly picks the tile shape from the Corrs sum alone — square
	// when ΣCorrs ≥ CorrsThreshold, outer-product-like otherwise (Fig. 9
	// ablation "Using Correlations only", threshold from Fig. 8).
	CorrsOnly bool
	// CorrsThreshold is the Fig. 8 decision boundary (default 1.6).
	CorrsThreshold float64
	// DisableRefinement turns off the model's exact cross-operand
	// input-traffic computation, leaving the paper's pure mean-field
	// estimates (ablated in experiment ext-refine).
	DisableRefinement bool
	// SkipResize stops after shape optimization (no TileFactor growth).
	SkipResize bool
	// MicroDiv is forwarded to the statistics collector (default 8).
	MicroDiv int
	// BaseTile overrides the conservative square tile dimension used for
	// the initial tiling (0 = derive from BufferWords). Used by the §6.7
	// packed-tiles study, which varies the initial tile size.
	BaseTile int
	// MaxGrowthDoublings bounds the greedy size growth (default 10).
	MaxGrowthDoublings int
	// Precollected supplies per-input statistics collected earlier (e.g.
	// restored from a d2t2d snapshot artifact). An entry must have been
	// collected at this optimization's conservative base tile and the
	// kernel's level order for its input — mismatches are an error.
	// Matching inputs skip the tile-and-collect phase entirely;
	// Result.BaseTiling then has no entry for them.
	Precollected map[string]*stats.Stats
	// Workers bounds the worker pool for the cold pipeline: per-input
	// tiling + statistics collection run concurrently, and the RF shape
	// sweep evaluates candidates in parallel against the read-only
	// predictor (0 = all cores). Results are byte-identical at any
	// worker count.
	Workers int
	// OverflowTarget enables risk-aware sizing (Tailors-style
	// overbooking, DESIGN.md §18): the acceptable predicted probability
	// that a tile fetched by the measurement machine overflows the input
	// buffer. 0 — the default — keeps the worst-case conservative
	// pipeline, byte-identical to previous releases. Positive targets
	// replace the Eq. 22 MaxTile seed with the (1−target) footprint
	// quantile and cost candidates with overflow-adjusted traffic. Must
	// be in [0, 1).
	OverflowTarget float64
	// OverflowExtra is the extra traffic charged per excess word on each
	// overflowing fetch when costing overbooked candidates — the same
	// coefficient exec.Options.OverflowExtra applies when measuring
	// (default 1.0: the excess crosses memory twice). Must be >= 0.
	OverflowExtra float64
	// Calibrate runs the measurement backend on the chosen config after
	// optimization, compares measured against predicted traffic, and
	// folds the residual into Calibration (a per-call store when nil).
	// Requires raw input tensors (stats-only precollection cannot be
	// measured). The outcome lands in Result.Risk.Calibration.
	Calibrate bool
	// Calibration is the per-workload-class residual-bias store
	// calibration runs feed and predictions consult. Nil leaves the raw
	// model; d2t2.Session supplies a session-lifetime store so repeated
	// calibrated optimizes converge.
	Calibration *model.Calibration
	// Predictor supplies the model the search queries, built earlier by
	// NewPredictor for the same kernel and options over the same
	// statistics bundles, so optimizations of one group share its
	// prediction memo (d2t2.Batch shares one per group of jobs). It must
	// answer for this optimization — the same expression, Mode,
	// ablations and, per input, the very bundle the optimization uses —
	// and neither it nor the optimization may be calibrated; mismatches
	// are an error. Nil builds a private predictor.
	Predictor *model.Predictor
}

func (o Options) withDefaults() Options {
	if o.RFs == nil {
		o.RFs = []float64{0.25, 0.5, 1, 2, 4, 8}
	}
	//d2t2:ignore floatdeterminism zero-value sentinel for an unset Options field, not a computed float
	if o.CorrsThreshold == 0 {
		o.CorrsThreshold = 1.6
	}
	if o.MicroDiv == 0 {
		o.MicroDiv = 8
	}
	if o.MaxGrowthDoublings == 0 {
		o.MaxGrowthDoublings = 10
	}
	//d2t2:ignore floatdeterminism zero-value sentinel for an unset Options field, not a computed float
	if o.OverflowExtra == 0 {
		o.OverflowExtra = 1
	}
	return o
}

// Candidate records one evaluated shape.
type Candidate struct {
	RF        float64
	Config    model.Config
	Predicted *model.Prediction
}

// Result is the optimizer's output.
type Result struct {
	Expr *einsum.Expr
	// BaseTile is the Conservative square tile dimension.
	BaseTile int
	// Config is the final per-index tile configuration.
	Config model.Config
	// RF is the chosen reorder factor; TileFactor the Eq. 22 bound that
	// seeded size growth (the percentile variant under a positive
	// OverflowTarget).
	RF         float64
	TileFactor int
	// Risk summarizes the risk-aware sizing decision and any calibration
	// run. Nil on the conservative path (OverflowTarget 0, Calibrate
	// off), keeping that Result byte-identical to previous releases.
	Risk *RiskReport
	// Stats and BaseTiling are reusable byproducts of the initial pass.
	Stats      map[string]*stats.Stats
	BaseTiling map[string]*tiling.TiledTensor
	// Predicted is the model's estimate for Config.
	Predicted  *model.Prediction
	Candidates []Candidate
}

// Optimize runs the full D2T2 pipeline for kernel e over the inputs.
func Optimize(e *einsum.Expr, inputs map[string]*tensor.COO, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), e, inputs, opts)
}

// OptimizeCtx is Optimize with cooperative cancellation: the per-input
// tile-and-collect fan-out, the RF shape sweep and the greedy size
// growth all consult ctx between work items, so a cancelled or
// deadline-expired context stops the pipeline near the cancellation
// point and returns the context's error instead of running the
// remaining compute to completion. A never-cancelled ctx yields exactly
// Optimize's byte-identical result at any worker count.
func OptimizeCtx(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if o.BufferWords <= 0 {
		return nil, fmt.Errorf("optimizer: BufferWords must be positive")
	}
	if o.OverflowTarget < 0 || o.OverflowTarget >= 1 {
		return nil, fmt.Errorf("optimizer: OverflowTarget %v outside [0, 1)", o.OverflowTarget)
	}
	if o.OverflowExtra < 0 {
		return nil, fmt.Errorf("optimizer: OverflowExtra %v must be >= 0", o.OverflowExtra)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}

	// 1. Conservative base tile: square across every index variable,
	// sized so the highest-order input's dense tile fits.
	for _, ref := range e.Inputs() {
		if inputs[ref.Name] == nil && o.Precollected[ref.Name] == nil {
			return nil, fmt.Errorf("optimizer: missing input %q", ref.Name)
		}
	}
	baseTile, err := o.BaseTileFor(e, inputs)
	if err != nil {
		return nil, err
	}

	// 2. Initial tiling + statistics collection.
	res := &Result{
		Expr:       e,
		BaseTile:   baseTile,
		Stats:      make(map[string]*stats.Stats),
		BaseTiling: make(map[string]*tiling.TiledTensor),
	}
	// Unique inputs tile-and-collect concurrently; the result maps are
	// filled serially in input order afterwards, and the lowest-index
	// error wins, so the outcome matches the old serial loop exactly.
	type collected struct {
		s  *stats.Stats
		tt *tiling.TiledTensor
	}
	var work []einsum.Ref
	seen := make(map[string]bool)
	for _, ref := range e.Inputs() {
		if seen[ref.Name] {
			continue
		}
		seen[ref.Name] = true
		work = append(work, ref)
	}
	cols, err := par.MapCtx(ctx, o.Workers, len(work), func(i int) (collected, error) {
		ref := work[i]
		base := make([]int, len(ref.Indices))
		for a := range base {
			base[a] = baseTile
		}
		if st := o.Precollected[ref.Name]; st != nil {
			if err := precollectedMatches(st, base, e.LevelOrder(ref)); err != nil {
				return collected{}, fmt.Errorf("optimizer: precollected stats for %q: %w", ref.Name, err)
			}
			return collected{s: st}, nil
		}
		s, tt, err := stats.CollectCtx(ctx, inputs[ref.Name], base, e.LevelOrder(ref),
			&stats.Options{MicroDiv: o.MicroDiv, Workers: o.Workers})
		if err != nil {
			return collected{}, err
		}
		return collected{s: s, tt: tt}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ref := range work {
		res.Stats[ref.Name] = cols[i].s
		if cols[i].tt != nil {
			res.BaseTiling[ref.Name] = cols[i].tt
		}
	}

	pred := o.Predictor
	if pred == nil {
		pred, err = o.NewPredictor(e, res.Stats)
	} else {
		err = predictorMatches(pred, e, res.Stats, o)
	}
	if err != nil {
		return nil, err
	}
	sz := sizing{pred: pred, e: e, o: o}

	// 3. Shape optimization.
	upIdx, downIdxs := shapeAxes(e)
	best := -1
	rfs := o.RFs
	if o.CorrsOnly {
		rfs = []float64{corrsOnlyRF(e, res.Stats, baseTile, o)}
	}
	// Several RFs snap to the same config, and each evaluation is a full
	// shape pass per input plus a prediction — so configs are built and
	// snapped serially (cheap), deduped on a canonical key, and only the
	// unique survivors evaluate concurrently against the read-only
	// predictor. The representative RF of a merged group reproduces the
	// serial sweep's keep rules: a fitting config is kept under its first
	// RF; a non-fitting config is kept only when one of its RFs is exactly
	// the base shape's 1.
	type uniqueCand struct {
		cfg      model.Config
		firstRF  float64
		firstIdx int // position of firstRF in rfs
		rf1Idx   int // position of the literal RF 1, or -1
	}
	var uniq []*uniqueCand
	seenCfg := make(map[string]int, len(rfs))
	var keyBuf []byte
	for i, rf := range rfs {
		cfg := make(model.Config, len(e.Order))
		for _, ix := range e.Order {
			cfg[ix] = baseTile
		}
		cfg[upIdx] = scaleDim(baseTile, rf)
		for _, ix := range downIdxs {
			cfg[ix] = scaleDim(baseTile, 1/rf)
		}
		cfg = pred.SnapConfigInPlace(cfg)
		keyBuf = keyBuf[:0]
		for _, ix := range e.Order {
			keyBuf = strconv.AppendInt(keyBuf, int64(cfg[ix]), 10)
			keyBuf = append(keyBuf, ',')
		}
		//d2t2:ignore floatdeterminism rf ranges over the literal RFs slice; matching the literal 1 exactly is intended
		isOne := rf == 1
		if j, ok := seenCfg[string(keyBuf)]; ok {
			if isOne && uniq[j].rf1Idx < 0 {
				uniq[j].rf1Idx = i
			}
			continue
		}
		seenCfg[string(keyBuf)] = len(uniq)
		uc := &uniqueCand{cfg: cfg, firstRF: rf, firstIdx: i, rf1Idx: -1}
		if isOne {
			uc.rf1Idx = i
		}
		uniq = append(uniq, uc)
	}
	type swept struct {
		fits bool
		p    *model.Prediction
		cost float64
	}
	sweeps, err := par.MapCtx(ctx, o.Workers, len(uniq), func(i int) (swept, error) {
		uc := uniq[i]
		// Area-preserving reshapes still change the CSF *metadata*
		// footprint (tall tiles carry more fibers and segment bounds), so
		// admission is re-checked per candidate.
		fits, err := sz.admits(uc.cfg)
		if err != nil {
			return swept{}, err
		}
		if !fits && uc.rf1Idx < 0 {
			return swept{}, nil // dropped: no RF keeps a non-fitting config
		}
		p, cost, err := sz.predict(uc.cfg)
		if err != nil {
			return swept{}, err
		}
		return swept{fits: fits, p: p, cost: cost}, nil
	})
	if err != nil {
		return nil, err
	}
	// Survivors append in the order of the RF that kept them (the first
	// RF for fitting configs, the literal 1 otherwise), so the
	// first-strict-minimum pick is byte-identical to the pre-dedupe sweep.
	type keptCand struct {
		pos  int
		cost float64
		cand Candidate
	}
	kept := make([]keptCand, 0, len(uniq))
	for i, sw := range sweeps {
		if sw.p == nil {
			continue
		}
		uc := uniq[i]
		pos, rf := uc.firstIdx, uc.firstRF
		if !sw.fits {
			pos, rf = uc.rf1Idx, 1
		}
		kept = append(kept, keptCand{pos: pos, cost: sw.cost, cand: Candidate{RF: rf, Config: uc.cfg, Predicted: sw.p}})
	}
	sort.Slice(kept, func(x, y int) bool { return kept[x].pos < kept[y].pos })
	bestCost := 0.0
	for _, kc := range kept {
		res.Candidates = append(res.Candidates, kc.cand)
		if best < 0 || kc.cost < bestCost { // first strict minimum
			best = len(res.Candidates) - 1
			bestCost = kc.cost
		}
	}
	chosen := res.Candidates[best]
	res.RF = chosen.RF
	res.Config = chosen.Config.Clone()
	res.Predicted = chosen.Predicted

	// 4. Size optimization.
	seedTile := 0.0
	if !o.SkipResize {
		if seedTile, err = res.grow(ctx, sz, upIdx); err != nil {
			return nil, err
		}
		p, err := pred.Predict(res.Config)
		if err != nil {
			return nil, err
		}
		res.Predicted = p
	}

	// 5. Risk report + calibration. Both are gated on their knobs, so the
	// conservative path (OverflowTarget 0, Calibrate off) never reaches
	// this code and stays byte-identical.
	if o.OverflowTarget > 0 {
		rk, err := evalRisk(pred, e, res.Config, res.Predicted, o)
		if err != nil {
			return nil, err
		}
		res.Risk = rk.report(o, int(math.Ceil(seedTile)))
	}
	if o.Calibrate {
		if err := res.calibrate(ctx, pred, inputs, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ConservativeBase returns the conservative square base tile dimension
// Optimize derives for kernel e under these options: Options.BaseTile if
// set, otherwise the largest power-of-two square whose dense tile of the
// kernel's highest-order input fits BufferWords. Exported so callers that
// collect (or cache) statistics ahead of Optimize — the d2t2d Session
// path — can key them by the exact tiling Optimize will require.
func (o Options) ConservativeBase(e *einsum.Expr) (int, error) {
	if o.BufferWords <= 0 {
		return 0, fmt.Errorf("optimizer: BufferWords must be positive")
	}
	maxOrder := 0
	for _, ref := range e.Inputs() {
		if len(ref.Indices) > maxOrder {
			maxOrder = len(ref.Indices)
		}
	}
	baseTile := o.BaseTile
	if baseTile == 0 {
		baseTile = tiling.ConservativeSquare(o.BufferWords, maxOrder)
	}
	if baseTile < 1 {
		return 0, fmt.Errorf("optimizer: buffer of %d words cannot hold any tile", o.BufferWords)
	}
	return baseTile, nil
}

// BaseTileFor is the base tile Optimize tiles and collects e's inputs
// at: ConservativeBase, with a derived base capped at the smallest power
// of two covering the largest input dimension. A larger square holds no
// more of the tensor, but the micro tiles and the growth derived from it
// would outgrow the tensor and inflate the predicted output traffic.
// Dimensions come from the raw inputs, or from Precollected statistics
// for inputs given only as stats. Callers that collect statistics ahead
// of Optimize key them by this tile.
func (o Options) BaseTileFor(e *einsum.Expr, inputs map[string]*tensor.COO) (int, error) {
	base, err := o.ConservativeBase(e)
	if err != nil || o.BaseTile != 0 {
		return base, err
	}
	cover := 1
	for _, ref := range e.Inputs() {
		var dims []int
		if t := inputs[ref.Name]; t != nil {
			dims = t.Dims
		} else if st := o.Precollected[ref.Name]; st != nil {
			dims = st.Dims
		}
		for _, d := range dims {
			for cover < d && cover < base {
				cover *= 2
			}
		}
	}
	return min(base, cover), nil
}

// precollectedMatches verifies supplied statistics were collected at the
// base tiling and level order this optimization requires.
func precollectedMatches(st *stats.Stats, base, order []int) error {
	if len(st.BaseTileDims) != len(base) {
		return fmt.Errorf("collected for an order-%d tensor, need order %d", len(st.BaseTileDims), len(base))
	}
	for a := range base {
		if st.BaseTileDims[a] != base[a] {
			return fmt.Errorf("collected at base tile %v, need %v", st.BaseTileDims, base)
		}
	}
	if len(st.Order) != len(order) {
		return fmt.Errorf("collected with %d levels, need %d", len(st.Order), len(order))
	}
	for l := range order {
		if st.Order[l] != order[l] {
			return fmt.Errorf("collected in level order %v, need %v", st.Order, order)
		}
	}
	return nil
}

// shapeAxes picks the index scaled up (the outermost output index in the
// dataflow order) and the indices scaled down (the contracted indices) by
// the RF sweep.
func shapeAxes(e *einsum.Expr) (string, []string) {
	outSet := make(map[string]bool)
	for _, ix := range e.Out.Indices {
		outSet[ix] = true
	}
	up := e.Out.Indices[0]
	for _, ix := range e.Order {
		if outSet[ix] {
			up = ix
			break
		}
	}
	return up, e.Contracted()
}

func scaleDim(base int, rf float64) int {
	d := int(float64(base)*rf + 0.5)
	if d < 1 {
		d = 1
	}
	return d
}

// corrsOnlyRF implements the Fig. 8 heuristic: low ΣCorrs (little output
// reuse) prefers outer-product-like tiles; high ΣCorrs prefers square.
func corrsOnlyRF(e *einsum.Expr, st map[string]*stats.Stats, baseTile int, o Options) float64 {
	contracted := e.Contracted()
	if len(contracted) == 0 {
		return 1
	}
	// Use the operand that carries the contraction with output indices —
	// the same choice the model's corrDivisor makes.
	sum := 0.0
	n := 0
	for _, ref := range e.Inputs() {
		for a, ix := range ref.Indices {
			if ix == contracted[0] {
				sum += st[ref.Name].CorrSum(a, baseTile)
				n++
			}
		}
	}
	if n > 0 {
		sum /= float64(n)
	}
	if sum < o.CorrsThreshold {
		return 8 // outer-product-like
	}
	return 1 // square
}

// NewPredictor builds the model an optimization of e with these
// options queries for the sweep and the growth: the options' evaluation
// mode, ablations and calibration store over the statistics st, keyed
// by input name.
func (o Options) NewPredictor(e *einsum.Expr, st map[string]*stats.Stats) (*model.Predictor, error) {
	pred, err := model.New(e, st)
	if err != nil {
		return nil, err
	}
	pred.Mode = o.Mode
	pred.UseCorrs = !o.DisableCorrs
	pred.DisableRefinement = o.DisableRefinement
	if o.Calibration != nil {
		pred.Calib = o.Calibration
		pred.CalibClass = CalibClass(e, o.Mode)
	}
	return pred, nil
}

// predictorMatches verifies a supplied Options.Predictor answers for
// this optimization: the expression, mode and ablations it was built
// with, and the very bundles st holds. Calibrated predictions move with
// the residual store, so they are never shared.
func predictorMatches(p *model.Predictor, e *einsum.Expr, st map[string]*stats.Stats, o Options) error {
	switch {
	case o.Calibrate || o.Calibration != nil || p.Calib != nil:
		return fmt.Errorf("optimizer: a calibrated optimization cannot share a predictor")
	case p.Expr.String() != e.String():
		return fmt.Errorf("optimizer: shared predictor is for %s, not %s", p.Expr, e)
	case p.Mode != o.Mode || p.UseCorrs == o.DisableCorrs || p.DisableRefinement != o.DisableRefinement:
		return fmt.Errorf("optimizer: shared predictor was built for another mode or ablation")
	case len(p.Stats) != len(st):
		return fmt.Errorf("optimizer: shared predictor holds %d bundles, the optimization %d", len(p.Stats), len(st))
	}
	for name, s := range st {
		if p.Stats[name] != s {
			return fmt.Errorf("optimizer: shared predictor holds another bundle for %q", name)
		}
	}
	return nil
}

// sizing is the rule one optimization sizes tiles by (DESIGN.md §18),
// fixed by Options.OverflowTarget. The RF sweep and grow both run
// through it:
//
//	              conservative (target 0)   risk-aware (target > 0)
//	admission     MaxTileBound ≤ buffer      overflow rate ≤ target
//	Eq. 22 seed   MaxTile                    (1−target) footprint quantile
//	cost          predicted total            total + overflow premium
type sizing struct {
	pred *model.Predictor
	e    *einsum.Expr
	o    Options
}

func (s sizing) risky() bool { return s.o.OverflowTarget > 0 }

// admits reports whether every input operand fits the buffer at cfg.
func (s sizing) admits(cfg model.Config) (bool, error) {
	for _, ref := range s.e.Inputs() {
		sh, err := s.pred.EvalRef(ref, cfg)
		if err != nil {
			return false, err
		}
		if s.risky() {
			if rate, _ := sh.OverflowStats(float64(s.o.BufferWords)); rate > s.o.OverflowTarget {
				return false, nil
			}
		} else if sh.MaxTileBound > s.o.BufferWords {
			// The conservative upper bound keeps D2T2's guarantee: the
			// retiled footprint never exceeds the member-sum estimate.
			return false, nil
		}
	}
	return true, nil
}

// predict returns the model's prediction for cfg and the cost the
// sweep and the growth minimize.
func (s sizing) predict(cfg model.Config) (*model.Prediction, float64, error) {
	p, err := s.pred.Predict(cfg)
	if err != nil {
		return nil, 0, err
	}
	if !s.risky() {
		return p, p.Total(), nil
	}
	rk, err := evalRisk(s.pred, s.e, cfg, p, s.o)
	if err != nil {
		return nil, 0, err
	}
	return p, p.Total() + rk.premium, nil
}

// tileFactor is Eq. 22 at cfg: BufferWords over the largest operand's
// seed footprint, at least 1. It also returns that footprint.
func (s sizing) tileFactor(cfg model.Config) (int, float64, error) {
	seed := 0.0
	for _, ref := range s.e.Inputs() {
		sh, err := s.pred.EvalRef(ref, cfg)
		if err != nil {
			return 0, 0, err
		}
		fp := float64(sh.MaxTile)
		if s.risky() {
			fp = sh.OverflowQuantile(s.o.OverflowTarget)
		}
		if fp > seed {
			seed = fp
		}
	}
	tf := 1
	if seed > 0 {
		if s.risky() {
			tf = int(float64(s.o.BufferWords) / seed)
		} else {
			tf = s.o.BufferWords / int(seed) // MaxTile is exact: stay in integers
		}
	}
	return max(tf, 1), seed, nil
}

// grow implements the size optimization: seed the primary output index
// with the Eq. 22 TileFactor, backing off until the sizing rule admits
// it, then greedily double tile dimensions while the rule admits them
// and the cost does not regress. It returns the seed footprint. ctx is
// consulted once per candidate doubling — each candidate costs a model
// prediction, the growth loop's unit of work.
func (r *Result) grow(ctx context.Context, s sizing, upIdx string) (float64, error) {
	tf, seed, err := s.tileFactor(r.Config)
	if err != nil {
		return 0, err
	}
	r.TileFactor = tf

	// Seed: scale the primary output index by the TileFactor, backing off
	// until it fits (the Eq. 22 estimate is conservative but the footprint
	// aggregation is approximate).
	for tf := r.TileFactor; tf > 1; tf /= 2 {
		cand := r.Config.Clone()
		cand[upIdx] = r.snapIdx(upIdx, satMul(cand[upIdx], tf))
		ok, err := s.admits(cand)
		if err != nil {
			return 0, err
		}
		if ok {
			r.Config = cand
			break
		}
	}

	// Greedy doubling over every index variable, round-robin: accept a
	// doubling when the grown tiles are admitted and the cost does not
	// regress (ties go to the larger tile — fewer tile iterations for
	// free). Growing contracted indices matters for high-reuse data such
	// as diagonal matrices, where the contracted span bounds the
	// iteration count.
	idxs := append([]string(nil), r.Expr.Order...)
	sort.Strings(idxs)
	_, cur, err := s.predict(r.Config)
	if err != nil {
		return 0, err
	}
	for pass := 0; pass < s.o.MaxGrowthDoublings; pass++ {
		improved := false
		for _, ix := range idxs {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			cand := r.Config.Clone()
			cand[ix] = r.snapIdx(ix, cand[ix]*2)
			if cand[ix] == r.Config[ix] {
				continue
			}
			ok, err := s.admits(cand)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
			_, c, err := s.predict(cand)
			if err != nil {
				return 0, err
			}
			if c <= cur*1.001 {
				r.Config = cand
				cur = c
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return seed, nil
}

// satMul returns a·b for non-negative operands, saturated at
// math.MaxInt: a TileFactor from a huge buffer times a tile dimension
// can exceed int.
func satMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// snapIdx rounds a single index's tile size to the micro granularity of
// a tensor that carries it, clamped to the dimension.
func (r *Result) snapIdx(ix string, v int) int {
	for _, ref := range r.Expr.Inputs() {
		for a, rix := range ref.Indices {
			if rix != ix {
				continue
			}
			st := r.Stats[ref.Name]
			m := st.MicroDims()[a]
			q := v/m + (v%m+m/2)/m // (v + m/2) / m without overflow
			if q < 1 {
				q = 1
			}
			if maxQ := (st.Dims[a] + m - 1) / m; q > maxQ {
				q = maxQ
			}
			return q * m
		}
	}
	return v
}

// TileAll tiles every input with the final configuration (the second
// tiling pass of the pipeline), ready for the measurement backend. All
// cores are used; see TileAllWorkers.
func TileAll(e *einsum.Expr, inputs map[string]*tensor.COO, cfg model.Config) (map[string]*tiling.TiledTensor, error) {
	return TileAllWorkers(e, inputs, cfg, 0)
}

// TileAllWorkers is TileAll with an explicit worker count (0 = all
// cores): inputs retile concurrently, each on the parallel tiler. The
// output is identical at any worker count.
func TileAllWorkers(e *einsum.Expr, inputs map[string]*tensor.COO, cfg model.Config, workers int) (map[string]*tiling.TiledTensor, error) {
	return TileAllCtx(context.Background(), e, inputs, cfg, workers)
}

// TileAllCtx is TileAllWorkers with cooperative cancellation: the
// per-input fan-out and each input's tiler stop claiming work once ctx
// is cancelled.
func TileAllCtx(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, cfg model.Config, workers int) (map[string]*tiling.TiledTensor, error) {
	refs := e.Inputs()
	tts, err := par.MapCtx(ctx, workers, len(refs), func(i int) (*tiling.TiledTensor, error) {
		ref := refs[i]
		m := inputs[ref.Name]
		if m == nil {
			return nil, fmt.Errorf("optimizer: missing input %q", ref.Name)
		}
		dims := make([]int, len(ref.Indices))
		for a, ix := range ref.Indices {
			td, ok := cfg[ix]
			if !ok {
				return nil, fmt.Errorf("optimizer: config misses %q", ix)
			}
			if td > m.Dims[a] {
				td = m.Dims[a]
			}
			dims[a] = td
		}
		return tiling.NewCtx(ctx, m, dims, e.LevelOrder(ref), workers)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*tiling.TiledTensor, len(refs))
	for i, ref := range refs {
		out[ref.Name] = tts[i]
	}
	return out, nil
}
