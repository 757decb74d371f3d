// Package model implements D2T2's probabilistic memory model (paper §4,
// §5.1): it predicts the input and output traffic of a tiled sparse
// tensor-algebra kernel from per-tensor statistics, without executing it.
//
// For each input tensor V the model computes (Eq. 7/13)
//
//	Traffic_V = SizeTile_V × Σ_{fetch space} P(V accessed)
//
// where the fetch space is every loop level down to V's innermost own
// index and the access probability combines V's own tile occupancy with
// the marginalized existence probabilities of its co-multiplied tensors
// (Eq. 14/15). Output traffic follows Eq. 19/20, with the Corrs statistic
// discounting partial products that reduce together.
//
// Two evaluation modes are provided:
//
//   - ModeExact (default): occupancy statistics are re-evaluated at each
//     candidate shape from the collector's micro-tile summary, so P_tile,
//     PrTileIdx and SizeTile respond to the shape exactly.
//   - ModeAnalytic: the paper-faithful path — base-tiling statistics are
//     extrapolated analytically (P_tile held constant, iteration counts
//     corrected by TileCorrs per Eq. 18). Used in the E-9 ablation.
package model

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"

	"d2t2/internal/einsum"
	"d2t2/internal/par"
	"d2t2/internal/stats"
)

// Mode selects how statistics respond to candidate shapes.
type Mode int

const (
	ModeExact Mode = iota
	ModeAnalytic
)

// Config assigns a tile size to every index variable of the kernel.
type Config map[string]int

// Clone returns a copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Predictor predicts traffic for one kernel over fixed input statistics.
// Predictions are memoized on the predictor (see Predict), so Expr and
// Stats must not change once it has predicted; Mode, the ablation flags
// and the calibration may.
type Predictor struct {
	Expr  *einsum.Expr
	Stats map[string]*stats.Stats // keyed by input occurrence name
	Mode  Mode
	// UseCorrs enables the Corrs output-reuse discount (Eq. 20). The
	// Fig. 9 ablation turns it off.
	UseCorrs bool
	// DisableRefinement turns off the exact cross-operand input-traffic
	// computation of refine.go, leaving the paper's pure mean-field model
	// even in ModeExact.
	DisableRefinement bool
	// Calib, when non-nil, scales every prediction by the workload class
	// CalibClass's residual bias learned from measurement-backend
	// calibration runs (refine.go). Nil — the default — leaves the raw
	// model untouched.
	Calib      *Calibration
	CalibClass string

	// prods and refine are derived from Expr once, in New: the kernel's
	// sum-of-products and, for a single-product kernel, the per-occurrence
	// refinement plans of refine.go.
	prods  [][]int
	refine []*refinePlan

	// preds memoizes uncalibrated predictions, one flight per key (see
	// Predict).
	preds par.Memo[string, *Prediction]
}

// predictMemoCap bounds one predictor's prediction memo. An optimize
// asks a few dozen configs and a batch group's jobs ask mostly the same
// ones; past the cap, predictions are computed without being kept.
const predictMemoCap = 1024

// EvalRef evaluates the shape statistics of one input occurrence under
// cfg: tile dims are read off the config in the ref's index order,
// snapped to micro granularity, and evaluated through the bundle's shape
// memo (stats.Stats.EvalShape). This is the entry point the optimizer's
// fits-checks share with Predict, so each distinct snapped shape is
// computed once per statistics bundle.
func (p *Predictor) EvalRef(ref einsum.Ref, cfg Config) (*stats.ShapeStats, error) {
	st := p.Stats[ref.Name]
	if st == nil {
		return nil, fmt.Errorf("model: missing stats for %q", ref.Name)
	}
	dims := make([]int, len(ref.Indices))
	for a, ix := range ref.Indices {
		td, ok := cfg[ix]
		if !ok || td < 1 {
			return nil, fmt.Errorf("model: config misses index %q", ix)
		}
		dims[a] = td
	}
	return st.EvalShape(st.SnapToMicroInto(dims, dims))
}

// New builds a predictor. Every input occurrence of e must have stats.
func New(e *einsum.Expr, st map[string]*stats.Stats) (*Predictor, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	for _, ref := range e.Inputs() {
		s := st[ref.Name]
		if s == nil {
			return nil, fmt.Errorf("model: missing stats for %q", ref.Name)
		}
		if len(s.Dims) != len(ref.Indices) {
			return nil, fmt.Errorf("model: %s has %d indices, stats describe order-%d tensor",
				ref, len(ref.Indices), len(s.Dims))
		}
	}
	p := &Predictor{Expr: e, Stats: st, Mode: ModeExact, UseCorrs: true, prods: e.ProductsIdx()}
	if len(p.prods) == 1 {
		p.refine = refinePlans(e, p.prods[0])
	}
	return p, nil
}

// Prediction is the model's traffic estimate in words.
type Prediction struct {
	Input  map[string]float64
	Output float64
}

// InputTotal returns the summed predicted input traffic.
func (p *Prediction) InputTotal() float64 {
	s := 0.0
	for _, v := range p.Input {
		s += v
	}
	return s
}

// Total returns predicted input + output traffic.
func (p *Prediction) Total() float64 { return p.InputTotal() + p.Output }

// tensorView is the per-occurrence evaluation of one candidate config:
// the statistics of the tensor at its candidate tile shape.
type tensorView struct {
	ref      einsum.Ref
	st       *stats.Stats
	tileDims []int // per axis
	outerN   []int // outer domain per axis
	sizeTile float64
	maxTile  int
	density  float64
	// pPrefix[l] = P(subtree bound at levels 0..l is non-empty).
	pPrefix []float64
	order   []int // level order (axis per level)
	// sh holds the full shape evaluation in ModeExact (nil in analytic
	// mode); it powers the cross-operand refinement (refine.go).
	sh *stats.ShapeStats
}

// view evaluates one occurrence under cfg.
func (p *Predictor) view(ref einsum.Ref, cfg Config) (*tensorView, error) {
	st := p.Stats[ref.Name]
	tileDims := make([]int, len(ref.Indices))
	for a, ix := range ref.Indices {
		td, ok := cfg[ix]
		if !ok || td < 1 {
			return nil, fmt.Errorf("model: config misses index %q", ix)
		}
		if td > st.Dims[a] {
			td = st.Dims[a]
		}
		tileDims[a] = td
	}
	v := &tensorView{ref: ref, st: st, order: p.Expr.LevelOrder(ref)}
	v.outerN = make([]int, len(tileDims))

	if p.Mode == ModeExact {
		snapped := st.SnapToMicroInto(tileDims, tileDims)
		sh, err := st.EvalShape(snapped)
		if err != nil {
			return nil, err
		}
		v.tileDims = snapped
		v.sh = sh
		copy(v.outerN, sh.OuterDims)
		v.sizeTile = sh.SizeTile
		v.maxTile = sh.MaxTile
		v.density = sh.Density
		v.pPrefix = make([]float64, len(tileDims))
		for l := range v.pPrefix {
			v.pPrefix[l] = sh.PPrefix(l)
		}
		return v, nil
	}

	// Analytic mode: hold base statistics, adjust iteration counts.
	v.tileDims = tileDims
	for a, td := range tileDims {
		v.outerN[a] = (st.Dims[a] + td - 1) / td
	}
	v.sizeTile = st.SizeTile
	v.maxTile = st.MaxTile
	v.density = st.DensityBase()
	// P over level prefixes from the base PrTileIdx chain. The paper
	// holds tile probabilities constant for same-area reshapes; when a
	// tile dimension grows past the base tile, slice occupancy is
	// corrected with the TileCorrs-based effective iteration count of
	// Eq. 18: fraction_merged = (E_merged × f / occupied_base) × base.
	v.pPrefix = make([]float64, len(tileDims))
	acc := 1.0
	for l, ax := range v.order {
		pl := st.PrTileIdx[l]
		if f := tileDims[ax] / st.BaseTileDims[ax]; f > 1 {
			if occ := float64(st.OccupiedBase(ax)); occ > 0 {
				mult := st.EOuterMerged(ax, f) * float64(f) / occ
				if mult < 1 {
					mult = 1
				}
				pl = clamp01(pl * mult)
			}
		}
		acc = clamp01(acc * pl)
		v.pPrefix[l] = acc
	}
	return v, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// pTile returns the full-tile non-empty probability.
func (v *tensorView) pTile() float64 { return v.pPrefix[len(v.pPrefix)-1] }

// pBound returns P(∃ unbound . V non-empty) when the loop indices in
// `boundVars` are bound. Bound own indices always form a prefix of the
// tensor's level order; unbound deeper levels are marginalized.
func (v *tensorView) pBound(boundVars map[string]bool) float64 {
	last := -1
	for l, ax := range v.order {
		if boundVars[v.ref.Indices[ax]] {
			last = l
		} else {
			break
		}
	}
	if last < 0 {
		return 1 // nothing bound: tensor certainly has data somewhere
	}
	return v.pPrefix[last]
}

// SnapConfig rounds every index's tile size to the micro granularity the
// statistics were collected at (and clamps to the dimension), matching
// what Predict evaluates in ModeExact. Use it to tile data consistently
// with a prediction. The input config is left untouched; callers on the
// sweep hot path that own their config should use SnapConfigInPlace.
func (p *Predictor) SnapConfig(cfg Config) Config {
	return p.SnapConfigInPlace(cfg.Clone())
}

// SnapConfigInPlace is SnapConfig without the defensive copy: cfg itself
// is MUTATED — every index's tile size is overwritten with its snapped
// value — and returned for chaining. A small fixed-size buffer keeps the
// per-call allocation at zero for tensors up to order 8.
func (p *Predictor) SnapConfigInPlace(cfg Config) Config {
	var buf [8]int
	for _, ref := range p.Expr.Inputs() {
		st := p.Stats[ref.Name]
		dims := buf[:0]
		for a, ix := range ref.Indices {
			td := cfg[ix]
			if td > st.Dims[a] {
				td = st.Dims[a]
			}
			dims = append(dims, td)
		}
		snapped := st.SnapToMicroInto(dims, dims)
		for a, ix := range ref.Indices {
			cfg[ix] = snapped[a]
		}
	}
	return cfg
}

// Predict estimates traffic for one tile configuration.
//
// The estimate is a pure function of the statistics and the raw config
// values of the kernel's index variables — the model snaps the tile
// dimensions itself but reads the raw ones in the output terms — so
// the predictor memoizes it per (raw config, Mode, UseCorrs,
// DisableRefinement), one flight per key: concurrent askers of a config
// (the jobs of a batch sharing the predictor) wait for its one
// computation. The memo holds the uncalibrated estimate; the
// calibration bias is applied to the returned copy, so the memo stays
// valid as the bias moves. The caller owns the returned Prediction.
func (p *Predictor) Predict(cfg Config) (*Prediction, error) {
	var buf [64]byte
	kb := buf[:0]
	for _, ix := range p.Expr.Order {
		kb = binary.AppendVarint(kb, int64(cfg[ix]))
	}
	kb = binary.AppendVarint(kb, int64(p.Mode))
	kb = append(kb, flagByte(p.UseCorrs), flagByte(p.DisableRefinement))
	raw, err := p.preds.Do(string(kb), predictMemoCap, func() (*Prediction, error) {
		return p.predict(cfg)
	})
	if err != nil {
		return nil, err
	}
	pred := &Prediction{Input: maps.Clone(raw.Input), Output: raw.Output}

	// Per-workload-class calibration bias (refine.go): a uniform scale on
	// every traffic term, so rankings between configs are unchanged while
	// the absolute level converges toward the measurement backend. The
	// nil/unseen case multiplies by exactly 1 and is skipped, keeping the
	// uncalibrated path byte-identical.
	if p.Calib != nil {
		//d2t2:ignore floatdeterminism Bias returns the exact literal 1 for nil/unseen classes; skipping that neutral multiply keeps uncalibrated predictions byte-identical
		if f := p.Calib.Bias(p.CalibClass); f != 1 {
			for k := range pred.Input {
				pred.Input[k] *= f
			}
			pred.Output *= f
		}
	}
	return pred, nil
}

// Computed reports how many predictions the predictor has computed
// rather than served from its memo, and Kept how many it holds: a
// predictor whose askers never raced past the single flight computed
// each kept config once.
func (p *Predictor) Computed() int64 { return p.preds.Runs() }
func (p *Predictor) Kept() int       { return p.preds.Len() }

func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// predict is Predict without the memo and the calibration bias.
func (p *Predictor) predict(cfg Config) (*Prediction, error) {
	e := p.Expr
	views := make([]*tensorView, 0, len(e.Inputs()))
	for _, ref := range e.Inputs() {
		v, err := p.view(ref, cfg)
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	prods := p.prods

	// Outer iteration counts per index variable (consistent across
	// tensors by construction; take from any view).
	outerN := make(map[string]float64)
	for _, v := range views {
		for a, ix := range v.ref.Indices {
			outerN[ix] = float64(v.outerN[a])
		}
	}

	pred := &Prediction{Input: make(map[string]float64)}

	// Input traffic per occurrence (Eq. 13, 16, 17 generalized). For
	// single-product kernels in ModeExact, the exact cross-operand
	// refinement replaces the mean-field product when applicable.
	for vi, v := range views {
		if p.Mode == ModeExact && !p.DisableRefinement && len(prods) == 1 {
			if tr, ok := p.refinedInputTraffic(vi, views); ok {
				pred.Input[v.ref.Name] += tr
				continue
			}
		}
		fetch := e.FetchSpace(v.ref)
		bound := make(map[string]bool, len(fetch))
		points := 1.0
		for _, ix := range fetch {
			bound[ix] = true
			points *= outerN[ix]
		}
		// Access probability: own tile non-empty and, for the best case
		// over summands containing this occurrence, all co-factors have
		// data consistent with the bound indices.
		access := 0.0
		for _, prod := range prods {
			if !containsInt(prod, vi) {
				continue
			}
			pr := v.pTile()
			for _, wi := range prod {
				if wi == vi {
					continue
				}
				pr *= views[wi].pBound(bound)
			}
			access += pr
		}
		access = clamp01(access)
		pred.Input[v.ref.Name] += v.sizeTile * points * access
	}

	// Output traffic: the exact cross-operand path for two-factor
	// single-contraction kernels in ModeExact, Eq. 19/20 otherwise.
	refined := false
	if p.Mode == ModeExact && !p.DisableRefinement && len(prods) == 1 {
		if out, ok := p.refinedOutput(views, prods[0], cfg, outerN); ok {
			pred.Output = out
			refined = true
		}
	}
	if !refined {
		pred.Output = p.predictOutput(cfg, views, prods, outerN)
	}
	return pred, nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// predictOutput estimates output traffic: expected number of output-tile
// writes times expected written-tile size.
func (p *Predictor) predictOutput(cfg Config, views []*tensorView, prods [][]int, outerN map[string]float64) float64 {
	e := p.Expr
	outDepth := e.FetchLevel(e.Out)

	// Store probability per full-domain point: sum over products of the
	// joint tile probability (addition adds probabilities, Eq. 8).
	pLeaf := 0.0
	for _, prod := range prods {
		pr := 1.0
		for _, vi := range prod {
			pr *= views[vi].pTile()
		}
		pLeaf += pr
	}
	pLeaf = clamp01(pLeaf)

	above, below := 1.0, 1.0
	for d, ix := range e.Order {
		if d <= outDepth {
			above *= outerN[ix]
		} else {
			below *= outerN[ix]
		}
	}
	writes := above * clamp01(below*pLeaf)
	if writes <= 0 {
		return 0
	}

	// Expected size of one written tile: for each summand, candidate
	// partial products per output element = Π_{contracted below write}
	// T_ix × Π member densities, discounted by the Corrs reduction sum
	// per contracted variable (Eq. 20).
	outArea := 1.0
	outTile := make(map[string]int)
	for _, ix := range e.Out.Indices {
		outArea *= float64(cfg[ix])
		outTile[ix] = cfg[ix]
	}
	pElem := 0.0
	for _, prod := range prods {
		term := 1.0
		for _, vi := range prod {
			term *= views[vi].density
		}
		for _, ix := range e.Contracted() {
			// The inner tile extent of the contracted index always
			// accumulates within one write (Eq. 20 numerator T_k)...
			term *= float64(cfg[ix])
			// ...and contracted *outer* loops below the output's
			// stationarity level also accumulate on-chip across tiles.
			if e.OrderPos(ix) > outDepth {
				term *= outerN[ix]
			}
			if p.UseCorrs {
				term /= p.corrDivisor(ix, cfg, prod, views)
			}
		}
		pElem += term
	}
	pElem = clamp01(pElem)
	nnz := pElem * outArea

	// Metadata estimate consistent with the CSF footprint of a 2-level
	// (or deeper) output tile: values + leaf coordinates + root fibers.
	rootAxis := e.LevelOrder(e.Out)[0]
	rootDim := float64(cfg[e.Out.Indices[rootAxis]])
	rootFibers := math.Min(rootDim, nnz)
	words := 2*nnz + 2*rootFibers + 3
	return writes * words
}

// corrDivisor returns Σ_{s=0..T_ix} Corrs(W, s) for the product member W
// whose rows are summed by the contraction — the operand carrying the
// contracted index whose non-contracted output index sits deepest in the
// dataflow order (B in SpMSpM-ikj: reducing over k adds rows of B[k,j],
// so collisions are overlaps between B's rows; the paper's §4.4 choice).
func (p *Predictor) corrDivisor(ix string, cfg Config, prod []int, views []*tensorView) float64 {
	e := p.Expr
	outSet := make(map[string]bool)
	for _, o := range e.Out.Indices {
		outSet[o] = true
	}
	best, bestScore, bestAxis := -1, -1, -1
	for _, vi := range prod {
		v := views[vi]
		axis := -1
		score := -1
		for a, vix := range v.ref.Indices {
			if vix == ix {
				axis = a
			}
			if outSet[vix] {
				if pos := e.OrderPos(vix); pos > score {
					score = pos
				}
			}
		}
		if axis >= 0 && score > bestScore {
			best, bestScore, bestAxis = vi, score, axis
		}
	}
	if best < 0 {
		return 1
	}
	return views[best].st.CorrSum(bestAxis, cfg[ix])
}
