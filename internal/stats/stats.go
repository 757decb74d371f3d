// Package stats implements the paper's Tile Statistics Collector (§4.3,
// §4.4): from a single conservative tiling pass it extracts the handful
// of statistics the probabilistic traffic model needs —
//
//	SizeTile   mean tile footprint (values + metadata words)
//	MaxTile    maximum tile footprint
//	PrTileIdx  per-outer-level conditional occupancy probabilities
//	ProbIndex  per-inner-level conditional fiber densities
//	Corrs      shift-correlation of coordinates along a contracted axis
//	TileCorrs  shift-correlation of outer-slice occupancy
//
// In addition the collector retains a micro-tile occupancy summary
// (tiles at 1/MicroDiv of the base tile per axis) so that occupancy
// statistics can be re-evaluated exactly at any candidate tile shape
// whose dimensions are multiples of the micro tile (see shape.go). The
// paper extrapolates base statistics analytically instead; we expose both
// paths and ablate them in experiment E-9.
package stats

import (
	"context"
	"fmt"
	"slices"

	"d2t2/internal/checked"
	"d2t2/internal/par"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Options controls statistics collection. The zero value selects the
// defaults documented on each field.
type Options struct {
	// MicroDiv is the number of micro tiles per base tile along every
	// axis (default 8). Candidate tile shapes evaluated by EvalShape must
	// be multiples of baseTile/MicroDiv.
	MicroDiv int
	// CorrMaxShift bounds the shift range of Corrs in element units
	// (default 2× the base tile dimension of the axis).
	CorrMaxShift int
	// CorrSampleTarget is the approximate number of source positions
	// sampled per axis when computing Corrs (default 512; the paper
	// samples 1% of tiles).
	CorrSampleTarget int
	// TileCorrMaxShift bounds the shift range of TileCorrs in base-tile
	// units (default 64, at most maxTileCorrShift).
	TileCorrMaxShift int
	// CorrAxes lists the original axes for which Corrs is computed
	// (default: every axis).
	CorrAxes []int
	// SkipExtensions omits the statistics this implementation adds beyond
	// the paper (per-element histograms and pair sketches), leaving
	// exactly the paper's collection pass — used by the Fig. 7 overhead
	// measurement. The model falls back to mean-field paths where the
	// extension statistics are missing.
	SkipExtensions bool
	// Workers bounds the worker pool used to partition collection over
	// tile and entry ranges (0 = all cores). Every reduction is
	// order-independent, so the collected statistics are byte-identical
	// at any worker count.
	Workers int
}

// maxTileCorrShift caps TileCorrMaxShift, four times its default.
// Finalize's tileCorrs costs O(grid × shift) per axis, so with the
// tiling.MaxAxisTiles (2^21) grid cap a decoded partial costs at most
// about 2^29 steps per axis.
const maxTileCorrShift = 256

func (o *Options) withDefaults() Options {
	out := Options{MicroDiv: 8, CorrSampleTarget: 512, TileCorrMaxShift: 64}
	if o != nil {
		if o.MicroDiv > 0 {
			out.MicroDiv = o.MicroDiv
		}
		if o.CorrMaxShift > 0 {
			out.CorrMaxShift = o.CorrMaxShift
		}
		if o.CorrSampleTarget > 0 {
			out.CorrSampleTarget = o.CorrSampleTarget
		}
		if o.TileCorrMaxShift > 0 {
			out.TileCorrMaxShift = min(o.TileCorrMaxShift, maxTileCorrShift)
		}
		out.CorrAxes = o.CorrAxes
		out.SkipExtensions = o.SkipExtensions
		out.Workers = o.Workers
	}
	return out
}

// corrAxes resolves the axes Corrs is collected for on an order-n
// tensor: every axis when CorrAxes is nil, else the listed ones.
func (o *Options) corrAxes(n int) ([]int, error) {
	axes := o.CorrAxes
	if axes == nil {
		axes = make([]int, n)
		for a := range axes {
			axes[a] = a
		}
	}
	for _, ax := range axes {
		if ax < 0 || ax >= n {
			return nil, fmt.Errorf("stats: corr axis %d out of range", ax)
		}
	}
	return axes, nil
}

// Stats holds everything the collector extracts for one tensor.
type Stats struct {
	Dims         []int // original dimension sizes
	BaseTileDims []int // the conservative tiling the stats were taken at
	Order        []int // CSF level order (axis per level)
	NNZ          int

	// Paper statistics (§4.3).
	SizeTile  float64
	MaxTile   int
	NumTiles  int
	PrTileIdx []float64 // per outer CSF level, conditional on parents
	ProbIndex []float64 // per inner CSF level, conditional on parents

	// Correlation proxies (§4.4), indexed by original axis.
	Corrs     map[int][]float64 // normalized to 1 at shift 0
	TileCorrs [][]float64       // per axis, conditional survival per tile shift

	// ElemCounts[a][v] is the number of stored entries with coordinate v
	// on axis a — the per-element slice histogram that powers the exact
	// partial-product (output) estimate for contractions (refine.go).
	ElemCounts [][]int32
	// PairSketch[a] is a bottom-k MinHash sketch of the tensor's
	// (coordinate on axis a, base-tile bucket of the remaining
	// coordinates) pairs. Comparing two operands' sketches on their
	// shared contracted axis estimates how aligned their structures are —
	// the signal that decides whether contraction collisions behave as
	// correlated (A×Aᵀ) or independent (A×random) in the output model.
	PairSketch [][]uint64

	// occupancy[a][i] reports whether outer slice i along axis a holds at
	// least one non-empty base tile.
	occupancy [][]bool

	micro *microSummary

	// shapes memoizes EvalShape per tile shape for the bundle's
	// lifetime, one flight per shape.
	shapes par.Memo[string, *ShapeStats]
}

// PTileBase returns the product of PrTileIdx over all outer levels: the
// estimated probability that a base tile is non-empty (Eq. 9).
func (s *Stats) PTileBase() float64 {
	p := 1.0
	for _, v := range s.PrTileIdx {
		p *= v
	}
	return p
}

// DensityBase returns the product of ProbIndex over all inner levels: the
// estimated probability that an element of a non-empty tile is non-zero
// (Eq. 10).
func (s *Stats) DensityBase() float64 {
	p := 1.0
	for _, v := range s.ProbIndex {
		p *= v
	}
	return p
}

// LevelOfAxis returns the CSF level that stores the given axis.
func (s *Stats) LevelOfAxis(axis int) int {
	for l, a := range s.Order {
		if a == axis {
			return l
		}
	}
	return -1
}

// Collect tiles t conservatively with baseTileDims (level order `order`,
// nil = natural), computes all statistics, and returns them together with
// the initial tiling for downstream reuse. This mirrors the toolchain of
// Figure 1: conservative tiling → statistics collection.
func Collect(t *tensor.COO, baseTileDims []int, order []int, opts *Options) (*Stats, *tiling.TiledTensor, error) {
	return CollectCtx(context.Background(), t, baseTileDims, order, opts)
}

// CollectCtx is Collect with cooperative cancellation: the tiling pass
// and every partitioned collection pass stop claiming work once ctx is
// cancelled, and the context's error is returned. A never-cancelled ctx
// yields exactly Collect's byte-identical statistics.
func CollectCtx(ctx context.Context, t *tensor.COO, baseTileDims []int, order []int, opts *Options) (*Stats, *tiling.TiledTensor, error) {
	o := opts.withDefaults()
	tt, err := tiling.NewCtx(ctx, t, baseTileDims, order, o.Workers)
	if err != nil {
		return nil, nil, err
	}
	s, err := CollectFromTiledCtx(ctx, t, tt, &o)
	if err != nil {
		return nil, nil, err
	}
	return s, tt, nil
}

// CollectFromTiled computes statistics given an existing conservative
// tiling of t. The raw tensor is needed for the micro-tile summary and
// the element-granularity Corrs.
func CollectFromTiled(t *tensor.COO, tt *tiling.TiledTensor, opts *Options) (*Stats, error) {
	return CollectFromTiledCtx(context.Background(), t, tt, opts)
}

// CollectFromTiledCtx is CollectFromTiled with cooperative cancellation
// (see CollectCtx). It is CollectPartialCtx at tt's tiling followed by
// Finalize, except that the base-tile table is read off tt instead of
// being grouped again from t, and the partial it has just built is not
// validated again.
func CollectFromTiledCtx(ctx context.Context, t *tensor.COO, tt *tiling.TiledTensor, opts *Options) (*Stats, error) {
	if !slices.Equal(t.Dims, tt.Dims) || t.NNZ() != tt.NNZ {
		return nil, fmt.Errorf("stats: tiling of a %v tensor with %d entries does not match the %v tensor with %d",
			tt.Dims, tt.NNZ, t.Dims, t.NNZ())
	}
	o := opts.withDefaults()
	prm, err := o.frame(t, tt.TileDims, tt.Order)
	if err != nil {
		return nil, err
	}
	p, err := collectPartial(ctx, t, prm, o.Workers, tiledSummary(tt), nil)
	if err != nil {
		return nil, err
	}
	return p.finalize(o.Workers)
}

// tiledSummary reads the base-tile table off a materialized tiling: the
// records SummarizeCtx computes for the same tiling (pinned by
// TestSummarizeMatchesNew), with keys ascending.
func tiledSummary(tt *tiling.TiledTensor) *tiling.TileSummary {
	n, m := len(tt.Dims), len(tt.Tiles)
	sum := &tiling.TileSummary{
		OuterDims:      tt.OuterDims,
		Keys:           make([]uint64, 0, m),
		NNZ:            make([]int32, m),
		Footprint:      make([]int32, m),
		Fibers:         make([][]int32, n),
		TotalFootprint: tt.TotalFootprint,
	}
	for k := range tt.Tiles {
		sum.Keys = append(sum.Keys, k)
	}
	slices.Sort(sum.Keys)
	back := make([]int32, n*m)
	for l := range sum.Fibers {
		sum.Fibers[l] = back[l*m : (l+1)*m : (l+1)*m]
	}
	for i, k := range sum.Keys {
		tile := tt.Tiles[k]
		sum.NNZ[i] = checked.Int32(tile.NNZ())
		sum.Footprint[i] = checked.Int32(tile.Footprint)
		for l := range sum.Fibers {
			sum.Fibers[l][i] = checked.Int32(tile.CSF.FiberCount(l))
		}
	}
	return sum
}

// CorrSum returns Σ_{s=0}^{limit} Corrs(axis, s), the output-reuse proxy
// the optimizer thresholds on (Fig. 8) and the model divides by (Eq. 20).
// Shifts beyond the computed range are extrapolated with the mean of the
// final quarter of the curve.
func (s *Stats) CorrSum(axis, limit int) float64 {
	c := s.Corrs[axis]
	if len(c) == 0 {
		return 1
	}
	sum := 0.0
	for sft := 0; sft <= limit && sft < len(c); sft++ {
		sum += c[sft]
	}
	if limit >= len(c) {
		// Extrapolate the tail with a geometric decay fitted from the
		// last two quarters of the computed curve: correlations fall off
		// past the structure's bandwidth, so persisting the edge value
		// across thousands of shifts would wildly overestimate reuse.
		q := len(c) / 4
		if q == 0 {
			q = 1
		}
		last, prev := 0.0, 0.0
		for i := len(c) - q; i < len(c); i++ {
			last += c[i]
		}
		for i := len(c) - 2*q; i < len(c)-q && i >= 0; i++ {
			prev += c[i]
		}
		last /= float64(q)
		rho := 0.5
		if prev > 0 {
			rho = last * float64(q) / prev / float64(q)
			if rho > 0.99 {
				rho = 0.99
			}
			if rho < 0 {
				rho = 0
			}
		}
		// Remaining shifts decay geometrically per quarter-block:
		// Σ_{b>=1} last·q·rho^b, truncated at the remaining length.
		remaining := float64(limit - len(c) + 1)
		blocks := remaining / float64(q)
		tailSum := 0.0
		weight := 1.0
		for b := 0.0; b < blocks && weight > 1e-6; b++ {
			weight *= rho
			span := float64(q)
			if rem := remaining - b*float64(q); rem < span {
				span = rem
			}
			tailSum += last * weight * span
		}
		sum += tailSum
	}
	if sum < 1 {
		sum = 1
	}
	return sum
}

// EOuterMerged implements Eq. 18: the effective number of outer-index
// iterations along axis when `factor` adjacent base tiles are merged,
// estimated from TileCorrs. factor 1 returns the occupied base count.
func (s *Stats) EOuterMerged(axis, factor int) float64 {
	occ := 0
	for _, b := range s.occupancy[axis] {
		if b {
			occ++
		}
	}
	if factor <= 1 || occ == 0 {
		return float64(occ)
	}
	tc := s.TileCorrs[axis]
	den := 0.0
	for sft := 0; sft < factor; sft++ {
		if sft < len(tc) {
			den += tc[sft]
		} else if len(tc) > 0 {
			den += tc[len(tc)-1]
		}
	}
	if den < 1 {
		den = 1
	}
	e := float64(occ) / den
	if e < 1 {
		e = 1
	}
	return e
}

// EOuterExact returns the exact number of occupied merged slices along
// axis when base tiles are merged in groups of `factor` — what Eq. 18
// approximates. Used to validate the approximation.
func (s *Stats) EOuterExact(axis, factor int) int {
	if factor < 1 {
		factor = 1
	}
	seen := make(map[int]bool)
	for i, b := range s.occupancy[axis] {
		if b {
			seen[i/factor] = true
		}
	}
	return len(seen)
}

// OccupiedBase returns the number of occupied base-granularity outer
// slices along axis.
func (s *Stats) OccupiedBase(axis int) int {
	n := 0
	for _, b := range s.occupancy[axis] {
		if b {
			n++
		}
	}
	return n
}
