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
	"sync"

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
	// units (default 64).
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
			out.TileCorrMaxShift = o.TileCorrMaxShift
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
	// lifetime, guarded by shapeMu.
	shapeMu sync.Mutex
	shapes  map[shapeKey]*ShapeStats
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
// (see CollectCtx).
func CollectFromTiledCtx(ctx context.Context, t *tensor.COO, tt *tiling.TiledTensor, opts *Options) (*Stats, error) {
	o := opts.withDefaults()
	n := len(tt.Dims)
	axes, err := o.corrAxes(n)
	if err != nil {
		return nil, err
	}
	if len(axes) > 0 {
		if _, err := corrKeySpace(tt.Dims); err != nil {
			return nil, err
		}
	}
	s := &Stats{
		Dims:         append([]int(nil), tt.Dims...),
		BaseTileDims: append([]int(nil), tt.TileDims...),
		Order:        append([]int(nil), tt.Order...),
		NNZ:          tt.NNZ,
		SizeTile:     tt.MeanFootprint(),
		MaxTile:      tt.MaxFootprint,
		NumTiles:     tt.NumTiles(),
		Corrs:        make(map[int][]float64),
	}

	// PrTileIdx: level-conditional occupancy from the outer CSF.
	oc := tt.OuterCSF
	s.PrTileIdx = make([]float64, n)
	for l := 0; l < n; l++ {
		ax := tt.Order[l]
		dim := tt.OuterDims[ax]
		parents := 1
		if l > 0 {
			parents = oc.FiberCount(l - 1)
		}
		if parents == 0 || dim == 0 {
			s.PrTileIdx[l] = 0
			continue
		}
		s.PrTileIdx[l] = float64(oc.FiberCount(l)) / (float64(parents) * float64(dim))
	}

	// Snapshot the tiles into a slice for range partitioning. The map
	// iteration order varies run to run, but every per-tile reduction
	// below is a commutative integer sum or boolean OR, so the collected
	// statistics do not depend on it (or on the worker count).
	tilesArr := make([]*tiling.Tile, 0, len(tt.Tiles))
	for _, tile := range tt.Tiles {
		tilesArr = append(tilesArr, tile)
	}
	tileChunks := par.Chunks(o.Workers, len(tilesArr))

	// One parallel pass over tile ranges: per-level fiber totals (for
	// ProbIndex) and outer-slice occupancy. Each worker accumulates into
	// one lazily-created scratch aggregate across every chunk it claims
	// (per-worker arenas, not per-chunk allocations); the scratches are
	// registered under a mutex and merged afterwards. Registration order
	// varies run to run, but the merge is a commutative integer sum and
	// boolean OR, so the result is byte-identical at any worker count.
	type tileAgg struct {
		fibers []int
		occ    [][]bool
	}
	var tmu sync.Mutex
	var taggs []*tileAgg
	newTileAgg := func() *tileAgg {
		a := &tileAgg{fibers: make([]int, n), occ: make([][]bool, n)}
		for ax := 0; ax < n; ax++ {
			a.occ[ax] = make([]bool, tt.OuterDims[ax])
		}
		tmu.Lock()
		taggs = append(taggs, a)
		tmu.Unlock()
		return a
	}
	if err := par.ForEachScratchCtx(ctx, o.Workers, len(tileChunks), newTileAgg, func(c int, a *tileAgg) error {
		for _, tile := range tilesArr[tileChunks[c][0]:tileChunks[c][1]] {
			for l := 0; l < n; l++ {
				a.fibers[l] += tile.CSF.FiberCount(l)
			}
			for ax, crd := range tile.Outer {
				a.occ[ax][crd] = true
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	fiberTotals := make([]int, n)
	s.occupancy = make([][]bool, n)
	for ax := 0; ax < n; ax++ {
		s.occupancy[ax] = make([]bool, tt.OuterDims[ax])
	}
	for _, a := range taggs {
		for l, v := range a.fibers {
			fiberTotals[l] += v
		}
		for ax := range a.occ {
			for i, b := range a.occ[ax] {
				if b {
					s.occupancy[ax][i] = true
				}
			}
		}
	}

	// ProbIndex: level-conditional fiber densities aggregated over tiles.
	s.ProbIndex = make([]float64, n)
	for l := 0; l < n; l++ {
		ax := tt.Order[l]
		parents := len(tt.Tiles)
		if l > 0 {
			parents = fiberTotals[l-1]
		}
		if parents == 0 {
			s.ProbIndex[l] = 0
			continue
		}
		s.ProbIndex[l] = float64(fiberTotals[l]) / (float64(parents) * float64(tt.TileDims[ax]))
	}

	// Per-element slice histograms and pair sketches (one pass over the
	// raw entries, partitioned into disjoint entry ranges) — extension
	// statistics beyond the paper's collector. Per-chunk histograms sum
	// elementwise; per-chunk bottom-k sketches merge into the k-smallest
	// multiset of all hashes, so both match the serial pass exactly.
	if !o.SkipExtensions {
		entryChunks := par.Chunks(o.Workers, t.NNZ())
		type entryAgg struct {
			counts   [][]int32
			sketches []*bottomK
		}
		var emu sync.Mutex
		var eaggs []*entryAgg
		newEntryAgg := func() *entryAgg {
			ea := &entryAgg{counts: make([][]int32, n), sketches: make([]*bottomK, n)}
			for a := 0; a < n; a++ {
				ea.counts[a] = make([]int32, t.Dims[a])
				ea.sketches[a] = newBottomK(sketchSize)
			}
			emu.Lock()
			eaggs = append(eaggs, ea)
			emu.Unlock()
			return ea
		}
		// Same per-worker scratch discipline as the tile pass: histograms
		// sum elementwise and bottom-k sketches merge into the k-smallest
		// multiset, both order-independent, so accumulating across whichever
		// chunks a worker happens to claim matches the serial pass exactly.
		if err := par.ForEachScratchCtx(ctx, o.Workers, len(entryChunks), newEntryAgg, func(c int, ea *entryAgg) error {
			for p := entryChunks[c][0]; p < entryChunks[c][1]; p++ {
				for a := 0; a < n; a++ {
					ea.counts[a][t.Crds[a][p]]++
					// Pair key: axis coordinate × coarse bucket of the rest.
					var rest uint64
					for b := 0; b < n; b++ {
						if b == a {
							continue
						}
						bucket := t.Crds[b][p] / tt.TileDims[b]
						rest = rest*uint64(tt.OuterDims[b]+1) + uint64(bucket)
					}
					ea.sketches[a].add(hash64(uint64(t.Crds[a][p])<<26 ^ rest))
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		s.ElemCounts = make([][]int32, n)
		sketches := make([]*bottomK, n)
		for a := 0; a < n; a++ {
			s.ElemCounts[a] = make([]int32, t.Dims[a])
			sketches[a] = newBottomK(sketchSize)
		}
		for _, ea := range eaggs {
			for a := 0; a < n; a++ {
				for v, c := range ea.counts[a] {
					s.ElemCounts[a][v] += c
				}
				sketches[a].merge(ea.sketches[a])
			}
		}
		s.PairSketch = make([][]uint64, n)
		for a := 0; a < n; a++ {
			s.PairSketch[a] = sketches[a].values()
		}
	}

	// TileCorrs per axis (occupancy was reduced above; read-only here).
	s.TileCorrs = make([][]float64, n)
	if err := par.ForEachCtx(ctx, o.Workers, n, func(a int) error {
		s.TileCorrs[a] = tileCorrs(s.occupancy[a], o.TileCorrMaxShift)
		return nil
	}); err != nil {
		return nil, err
	}

	// Element-granularity Corrs along the requested axes, one worker per
	// axis (each axis reads the raw tensor independently and the result
	// lands in its own slot).
	corrs, err := par.MapCtx(ctx, o.Workers, len(axes), func(i int) ([]float64, error) {
		ax := axes[i]
		maxShift := o.CorrMaxShift
		if maxShift == 0 {
			maxShift = 2 * tt.TileDims[ax]
		}
		return corrsAxis(t, ax, maxShift, o.CorrSampleTarget), nil
	})
	if err != nil {
		return nil, err
	}
	for i, ax := range axes {
		s.Corrs[ax] = corrs[i]
	}

	// Micro-tile occupancy summary for exact shape re-evaluation.
	micro, err := buildMicroSummary(ctx, t, tt, o.MicroDiv, o.Workers)
	if err != nil {
		return nil, err
	}
	s.micro = micro
	return s, nil
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
