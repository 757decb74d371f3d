package model

import (
	"math"
	"sync"

	"d2t2/internal/einsum"
	"d2t2/internal/stats"
)

// Cross-operand input-traffic refinement (ModeExact only).
//
// The paper's model multiplies single-tensor probabilities, assuming
// operand sparsity structures are uncorrelated (§4.2.1). For kernels such
// as A×Aᵀ that assumption fails in a correlated direction (§5.3). Because
// the collector retains per-tile occupancy at the candidate shape
// (stats.ShapeStats.GroupOuter), the expected fetch count of an operand
// can instead be computed exactly for single-product kernels:
//
//	Traffic_V = Σ_{tiles t of V} fp(t) × Π_{cofactors W} factor_W(t)
//
// where factor_W(t) is, for a cofactor that binds extra loop indices
// (indices in V's fetch space that V does not carry), the number of
// distinct extra-index assignments of W consistent with t's shared
// coordinates — the exact re-fetch multiplicity — and, for a cofactor
// binding no extras, an indicator that W has any data consistent with
// t's shared coordinates (the exact tile-filter term).
//
// Both factors are read from W's stats.Projection over (shared, extras)
// axes: a sorted table memoized on W's shape, which the bundle's shape
// memo shares across every prediction and batch job at that shape, so a
// prediction does one binary search per (V tile, cofactor) and builds no
// table. Which axes play which role depends only on the expression, so
// New derives it once per Predictor (refinePlans).
//
// The refinement applies when every extra index is owned by exactly one
// cofactor; otherwise (joint conditions across cofactors, e.g. MTTKRP's
// B and C sharing l) the mean-field path is used. ModeAnalytic never
// refines — it is the paper-faithful model used in the Fig. 9 ablation.

// refinePlan lists the cofactors constraining one occurrence V's fetches.
type refinePlan struct {
	cofactors []cofactorPlan
}

// cofactorPlan describes how one cofactor W constrains V's fetches.
type cofactorPlan struct {
	w int // W's occurrence index
	// sharedV are V's axis positions whose coordinates key the lookup;
	// sharedW are the corresponding axis positions in W.
	sharedV, sharedW []int
	// extras are W's axes bound to V's extra fetch indices; empty for a
	// filter cofactor.
	extras []int
}

// refinePlans derives the refinement plan of every occurrence of the
// single product prod, indexed by occurrence; an entry is nil when some
// extra index is not owned by exactly one cofactor.
func refinePlans(e *einsum.Expr, prod []int) []*refinePlan {
	refs := e.Inputs()
	plans := make([]*refinePlan, len(refs))
	for _, vi := range prod {
		v := refs[vi]
		own := make(map[string]int, len(v.Indices)) // index var -> V axis
		for a, ix := range v.Indices {
			own[ix] = a
		}
		extraOwner := make(map[string]int) // extra index -> count of cofactors carrying it
		for _, ix := range e.FetchSpace(v) {
			if _, ok := own[ix]; !ok {
				extraOwner[ix] = 0
			}
		}
		plan := &refinePlan{}
		for _, wi := range prod {
			if wi == vi {
				continue
			}
			c := cofactorPlan{w: wi}
			for a, ix := range refs[wi].Indices {
				if va, ok := own[ix]; ok {
					c.sharedV = append(c.sharedV, va)
					c.sharedW = append(c.sharedW, a)
				} else if _, isExtra := extraOwner[ix]; isExtra {
					extraOwner[ix]++
					c.extras = append(c.extras, a)
				}
				// Other indices of W lie below V's fetch level and are
				// marginalized by the projection.
			}
			plan.cofactors = append(plan.cofactors, c)
		}
		plans[vi] = plan
		for _, n := range extraOwner {
			if n != 1 {
				plans[vi] = nil
			}
		}
	}
	return plans
}

// refinedInputTraffic computes the exact expected traffic for occurrence
// vi under a single-product kernel, or (0, false) when the preconditions
// fail and the caller must fall back to the mean-field estimate.
func (p *Predictor) refinedInputTraffic(vi int, views []*tensorView) (float64, bool) {
	plan := p.refine[vi]
	v := views[vi]
	if plan == nil || v.sh == nil || len(v.sh.GroupFP) == 0 {
		return 0, false
	}
	var buf [4]*stats.Projection
	projs := buf[:0]
	for _, c := range plan.cofactors {
		w := views[c.w]
		if w.sh == nil {
			return 0, false
		}
		// Shared coordinates: tile sizes must agree for the outer grids
		// to align.
		for i, va := range c.sharedV {
			if w.tileDims[c.sharedW[i]] != v.tileDims[va] {
				return 0, false
			}
		}
		projs = append(projs, w.sh.Project(c.sharedW, c.extras))
	}

	traffic := 0.0
	for t, f := range v.sh.GroupFP {
		oc := v.sh.TileOuter(t)
		mult := 1.0
		for i, c := range plan.cofactors {
			mult *= float64(projs[i].Lookup(oc, c.sharedV))
			if mult <= 0 {
				break
			}
		}
		traffic += f * mult
	}
	return traffic, true
}

// refinedOutput computes the output-traffic estimate for two-factor
// single-contraction kernels from exact cross-operand statistics:
//
//   - the total partial-product count is Σ_e cV(e)·cW(e) over the
//     contracted axis element histograms (exact — it equals the MAC
//     count of the execution),
//   - the write count is Σ over contracted tile slices of
//     cntV(slice)·cntW(slice) (exact for leaf-level writes; an upper
//     bound that is capped for stationary outputs),
//   - within-write reduction divides partials by the Corrs sum over the
//     contraction extent covered by one write (Eq. 20's discount).
//
// Returns (words, true) or (0, false) when preconditions fail.
func (p *Predictor) refinedOutput(views []*tensorView, prod []int, cfg Config, outerN map[string]float64) (float64, bool) {
	e := p.Expr
	if len(prod) != 2 {
		return 0, false
	}
	contracted := e.Contracted()
	if len(contracted) != 1 {
		return 0, false
	}
	ix := contracted[0]
	v, w := views[prod[0]], views[prod[1]]
	if v.sh == nil || w.sh == nil {
		return 0, false
	}
	axV, axW := axisOf(v, ix), axisOf(w, ix)
	if axV < 0 || axW < 0 {
		return 0, false
	}
	if v.st.Dims[axV] != w.st.Dims[axW] || v.tileDims[axV] != w.tileDims[axW] {
		return 0, false
	}

	// Exact total partial products.
	cV, cW := v.st.ElemCounts[axV], w.st.ElemCounts[axW]
	if cV == nil || cW == nil {
		return 0, false
	}
	partials := 0.0
	for i := range cV {
		partials += float64(cV[i]) * float64(cW[i])
	}
	if partials <= 0 {
		return 0, true
	}

	// Exact tile-level pair count along the contracted slices.
	nSlices := v.sh.OuterDims[axV]
	sliceV := make([]int32, nSlices)
	for t := range v.sh.GroupFP {
		sliceV[v.sh.TileOuter(t)[axV]]++
	}
	sliceW := make([]int32, nSlices)
	for t := range w.sh.GroupFP {
		sliceW[w.sh.TileOuter(t)[axW]]++
	}
	leafPairs := 0.0
	for s := 0; s < nSlices; s++ {
		leafPairs += float64(sliceV[s]) * float64(sliceW[s])
	}

	outDepth := e.FetchLevel(e.Out)
	writes := leafPairs
	if outDepth < len(e.Order)-1 {
		// Output is stationary across deeper loops: distinct out-tile
		// combinations bound the writes.
		bound := 1.0
		for d := 0; d <= outDepth; d++ {
			bound *= outerN[e.Order[d]]
		}
		if bound < writes {
			writes = bound
		}
	}
	if writes < 1 {
		writes = 1
	}

	// Within-write contraction extent: the inner tile span, plus the
	// whole outer range when the contraction loop sits below the
	// output's stationarity level.
	extent := cfg[ix]
	if e.OrderPos(ix) > outDepth {
		extent = v.st.Dims[axV]
	}
	corr := 1.0
	if p.UseCorrs {
		corr = p.corrDivisor(ix, Config{ix: extent}, prod, views)
		if corr < 1 {
			corr = 1
		}
	}
	// The Corrs sum measures how much two contracted slices overlap when
	// both contribute — but a collision also needs both slices to carry
	// data for the same write. Damp the discount by the expected partial
	// density of one write region (λ ≥ 1 keeps the full discount; sparse
	// writes keep most partials distinct).
	outArea := 1.0
	for _, oix := range e.Out.Indices {
		outArea *= float64(cfg[oix])
	}
	lambda := partials / writes / maxFloat(outArea, 1)
	if lambda > 1 {
		lambda = 1
	}
	// How much of the Corrs discount applies depends on whether the two
	// operands select *aligned* structure (A×Aᵀ: every overlap collides)
	// or independent structure (A×random: collisions additionally need
	// density λ). The operands' pair sketches estimate that alignment.
	align := 0.0
	if len(v.st.PairSketch) > axV && len(w.st.PairSketch) > axW {
		align = stats.SketchJaccard(v.st.PairSketch[axV], w.st.PairSketch[axW])
	}
	damp := align + (1-align)*lambda
	reduction := 1 + (corr-1)*damp
	written := partials / reduction
	if written > partials {
		written = partials
	}

	// CSF words: values + leaf coordinates + root fibers per write.
	rootAxis := e.LevelOrder(e.Out)[0]
	rootDim := float64(cfg[e.Out.Indices[rootAxis]])
	fibers := writes * rootDim
	if fibers > written {
		fibers = written
	}
	return 2*written + 2*fibers + 3*writes, true
}

// axisOf returns the view's axis bound to the index variable, or -1.
func axisOf(v *tensorView, ix string) int {
	for a, vix := range v.ref.Indices {
		if vix == ix {
			return a
		}
	}
	return -1
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Calibration residuals (risk-aware optimization, DESIGN.md §18).
//
// The model's absolute traffic level carries a workload-dependent bias
// (metadata aggregation, mean-field terms outside the refinement's
// applicability). Since PR 8 the measurement backend is cheap enough to
// close the loop: a calibration run executes the chosen config, compares
// measured against predicted traffic, and folds the residual into a
// per-workload-class multiplicative bias. Predictions scale uniformly by
// the class bias, so candidate *rankings* (and thus chosen configs) are
// unchanged — only the absolute traffic level converges toward the
// measurement, geometrically: each observation takes a half step in log
// space, so the log-residual halves per calibration run.

// calibMinBias/calibMaxBias bound the learned correction so one
// pathological measurement cannot poison a class.
const (
	calibMinBias = 0.25
	calibMaxBias = 4.0
)

// Calibration accumulates per-workload-class residual biases. The zero
// value is not usable; use NewCalibration. All methods are safe for
// concurrent use.
type Calibration struct {
	mu   sync.Mutex
	bias map[string]float64
	runs map[string]int
}

// NewCalibration returns an empty calibration store (every class bias 1).
func NewCalibration() *Calibration {
	return &Calibration{bias: make(map[string]float64), runs: make(map[string]int)}
}

// Bias returns the multiplicative correction for a workload class; 1 for
// a class never observed.
func (c *Calibration) Bias(class string) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.bias[class]; ok {
		return b
	}
	return 1
}

// Runs returns how many observations a class has absorbed.
func (c *Calibration) Runs(class string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[class]
}

// Observe folds one (predicted, measured) traffic pair — predicted
// already includes the current bias — into the class and returns the
// updated bias: bias ← clamp(bias × √(measured/predicted)). With a
// stable workload the residual ratio r = measured/predicted evolves as
// r ← √r, so |log r| halves monotonically run over run.
func (c *Calibration) Observe(class string, predicted, measured float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.bias[class]
	if !ok {
		b = 1
	}
	c.runs[class]++
	if predicted <= 0 || measured <= 0 {
		return b
	}
	ratio := measured / predicted
	b *= math.Sqrt(ratio)
	if b < calibMinBias {
		b = calibMinBias
	}
	if b > calibMaxBias {
		b = calibMaxBias
	}
	c.bias[class] = b
	return b
}
