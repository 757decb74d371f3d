package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"d2t2/internal/checked"
	"d2t2/internal/par"
	"d2t2/internal/radix"
	"d2t2/internal/tiling"
)

// microSummary is a compact occupancy map of the tensor at micro-tile
// granularity (base tile / MicroDiv per axis). It is what lets the model
// re-evaluate occupancy statistics exactly at any candidate tile shape
// whose dimensions are micro multiples, instead of assuming P_tile stays
// constant across shapes.
type microSummary struct {
	dims      []int    // original dims
	microDims []int    // micro tile size per axis
	outerDims []int    // micro grid extent per axis
	keys      []uint64 // micro grid keys (radix.Codec of outerDims), ascending
	nnz       []int32
	footprint []int32
	// fpScale calibrates the Σ-of-member-footprints estimate: merging
	// micro CSFs shares upper-level metadata, so the sum overestimates a
	// retiled CSF's footprint. The scale is fit once against the exact
	// base tiling and applied to every candidate shape.
	fpScale float64
}

// ShapeStats summarizes the tensor's occupancy under one candidate tile
// shape, evaluated exactly from the micro summary.
type ShapeStats struct {
	TileDims  []int
	OuterDims []int
	NumTiles  int       // non-empty tiles
	PTile     float64   // NumTiles / Π OuterDims
	Marginal  []float64 // per axis: occupied slice fraction
	Occupied  []int     // per axis: occupied slice count
	SizeTile  float64   // mean footprint words over non-empty tiles
	MaxTile   int
	// MaxTileBound is the uncalibrated sum of member micro-tile
	// footprints for the largest tile: a true upper bound on the retiled
	// CSF footprint (member boundaries align, so merging only shares
	// metadata). Fit guarantees must use this, not MaxTile.
	MaxTileBound int
	MeanNNZ      float64 // mean nnz per non-empty tile
	Density      float64 // MeanNNZ / tile area
	// PrefixOccupied[l] is the number of distinct outer coordinate
	// prefixes over levels 0..l (in the tensor's level order). The last
	// entry equals NumTiles. PrefixOccupied[l] / Π_{m<=l} OuterDims gives
	// the probability that a partially-bound subtree is non-empty — the
	// marginalized "∃ rest" terms of the traffic model (Eq. 5/14/15).
	PrefixOccupied []int
	// Order is the level order the prefixes follow (axis per level).
	Order []int
	// GroupOuter/GroupFP enumerate every non-empty tile at this shape in
	// canonical tile-key order: tile t's outer coordinates in axis order
	// sit flat at GroupOuter[t·n : (t+1)·n] (see TileOuter), its
	// calibrated footprint at GroupFP[t]. They power the model's exact
	// cross-operand refinement (DESIGN.md §4).
	GroupOuter []int32
	GroupFP    []float64
	// FPScale is the calibration factor already applied to GroupFP,
	// SizeTile and MaxTile (1 when uncalibrated). GroupFP[i]/FPScale
	// recovers tile i's uncalibrated member-sum — like MaxTileBound, a
	// true upper bound on the retiled CSF footprint. The overflow
	// methods divide the calibration back out so risk admission never
	// under-predicts (the calibrated estimate can sit below a tile's
	// real footprint at shapes far from the statistics frame).
	FPScale float64

	// projs memoizes Project per (shared, extras) axis-set pair; the
	// shape is shared through the bundle's shape memo, so every
	// consumer of the bundle shares these tables too.
	projs par.Memo[string, *Projection]
}

// TileOuter returns tile t's outer coordinates in axis order, a view
// into GroupOuter.
func (sh *ShapeStats) TileOuter(t int) []int32 {
	n := len(sh.OuterDims)
	return sh.GroupOuter[t*n : (t+1)*n : (t+1)*n]
}

// Projection is the shape's tiles seen through two disjoint axis sets:
// Keys holds the key of every distinct outer-coordinate tuple on the
// shared axes (in the shape's grid restricted to them), ascending, and
// Count[i] the number of distinct extras tuples among the tiles whose
// shared key is Keys[i]. With no extras every count is 1.
type Projection struct {
	grid  *radix.Codec
	Keys  []uint64
	Count []int32
}

// Lookup returns the count stored for the shared-axis tuple of outer
// coordinates oc at positions axes, or 0 when no tile projects onto it —
// also when the tuple lies outside the projection's grid.
func (p *Projection) Lookup(oc []int32, axes []int) int32 {
	var buf [8]int
	c := buf[:0]
	for _, a := range axes {
		c = append(c, int(oc[a]))
	}
	key, ok := p.grid.Encode(c)
	if !ok {
		return 0
	}
	if i, ok := slices.BinarySearch(p.Keys, key); ok {
		return p.Count[i]
	}
	return 0
}

// Project returns the shape's Projection over the disjoint axis lists
// shared and extras. Results are memoized on the shape, one flight per
// axis-set pair, so repeated predictions at a memoized shape (the
// optimizer's sweep, every job of a batch sharing the bundle) read a
// sorted table instead of rebuilding it. The result is shared and
// read-only.
func (sh *ShapeStats) Project(shared, extras []int) *Projection {
	var buf [16]byte
	kb := append(buf[:0], byte(len(shared)))
	for _, a := range shared {
		kb = binary.AppendUvarint(kb, uint64(a))
	}
	for _, a := range extras {
		kb = binary.AppendUvarint(kb, uint64(a))
	}
	p, _ := sh.projs.Do(string(kb), 0, func() (*Projection, error) {
		return sh.project(shared, extras), nil
	})
	return p
}

// project is Project without the memo: it keys each tile's (shared,
// extras) tuple in the grid of those axes — shared fields first, so a
// shared key is a key prefix — radix-sorts the keys and counts distinct
// extras tuples per shared run. The axes are distinct axes of the shape,
// whose grid has keys, so both grids have keys too.
func (sh *ShapeStats) project(shared, extras []int) *Projection {
	axes := slices.Concat(shared, extras)
	dims := make([]int, len(axes))
	for i, a := range axes {
		dims[i] = sh.OuterDims[a]
	}
	full, _ := radix.NewCodec(dims)
	grid, _ := radix.NewCodec(dims[:len(shared)])
	pairs := make([]uint64, len(sh.GroupFP))
	c := make([]int, len(axes))
	for t := range pairs {
		oc := sh.TileOuter(t)
		for i, a := range axes {
			c[i] = int(oc[a])
		}
		pairs[t], _ = full.Encode(c)
	}
	pairs, _ = radix.Sort(pairs, make([]uint64, len(pairs)), nil, nil)
	l := len(shared)
	p := &Projection{grid: grid}
	for i, v := range pairs {
		switch {
		case i == 0 || full.Prefix(v, l) != full.Prefix(pairs[i-1], l):
			p.Keys = append(p.Keys, full.Prefix(v, l))
			p.Count = append(p.Count, 1)
		case v != pairs[i-1]:
			p.Count[len(p.Count)-1]++
		}
	}
	return p
}

// PPrefix returns the probability that a subtree bound at levels 0..l is
// non-empty: PrefixOccupied[l] / Π_{m<=l} N_m.
func (sh *ShapeStats) PPrefix(l int) float64 {
	if l < 0 {
		return 1
	}
	dom := 1.0
	for m := 0; m <= l; m++ {
		dom *= float64(sh.OuterDims[sh.Order[m]])
	}
	if dom == 0 {
		return 0
	}
	return float64(sh.PrefixOccupied[l]) / dom
}

// boundScale returns the factor dividing GroupFP back to the
// uncalibrated member-sum bound (1 when never calibrated).
func (sh *ShapeStats) boundScale() float64 {
	if sh.FPScale > 0 {
		return sh.FPScale
	}
	return 1
}

// OverflowQuantile returns the smallest tile-footprint bound f (words)
// such that at most an `overflow` fraction of the non-empty tiles
// exceed f — the percentile that replaces MaxTile in the risk-aware
// Eq. 22 seed (Tailors-style overbooking). Footprints are the
// uncalibrated member-sum bounds (see FPScale), so a buffer sized to
// the quantile truly holds all but the allowed fraction of tiles.
// overflow = 0 returns the maximum (= MaxTileBound); a tensor with no
// tiles returns 0. The computation sorts a copy of GroupFP, so it is
// deterministic for a given shape.
func (sh *ShapeStats) OverflowQuantile(overflow float64) float64 {
	n := len(sh.GroupFP)
	if n == 0 {
		return 0
	}
	if overflow <= 0 {
		m := sh.GroupFP[0]
		for _, fp := range sh.GroupFP[1:] {
			if fp > m {
				m = fp
			}
		}
		return m / sh.boundScale()
	}
	sorted := append([]float64(nil), sh.GroupFP...)
	sort.Float64s(sorted)
	// `allow` tiles may exceed the returned footprint.
	allow := int(overflow * float64(n))
	if allow >= n {
		allow = n - 1
	}
	return sorted[n-1-allow] / sh.boundScale()
}

// OverflowStats returns the fraction of non-empty tiles whose footprint
// bound exceeds the buffer budget and their summed excess words — the
// model-side counterpart of exec's OverflowFetches accounting. Like
// OverflowQuantile it uses the uncalibrated member-sum bounds, so the
// rate never under-predicts the machine's per-tile overflow fraction.
// The excess accumulates in GroupFP's canonical tile-key order, so the
// float sum is deterministic.
func (sh *ShapeStats) OverflowStats(budgetWords float64) (rate, excessWords float64) {
	n := len(sh.GroupFP)
	if n == 0 {
		return 0, 0
	}
	scale := sh.boundScale()
	scaledBudget := budgetWords * scale
	over := 0
	for _, fp := range sh.GroupFP {
		if fp > scaledBudget {
			over++
			excessWords += fp - scaledBudget
		}
	}
	return float64(over) / float64(n), excessWords / scale
}

// shapeMemoCap bounds one bundle's shape memo. One optimize sweep
// evaluates a few dozen distinct shapes per bundle, so a batch of jobs
// sharing the bundle fits well inside it; once full, further shapes are
// evaluated without being kept.
const shapeMemoCap = 256

// EvalShape aggregates the micro summary into tiles of the given
// per-axis dimensions, which must be positive multiples of the micro tile
// dimensions. Footprints are summed over members, a slight overestimate
// of a retiled CSF's footprint (shared upper-level metadata), consistent
// across candidates.
//
// Results are memoized on the bundle per tile shape (up to shapeMemoCap
// shapes), one flight per shape: the optimizer's sweep re-derives the
// same shapes for many candidates, and every job holding the same
// *Stats shares them, so concurrent askers of a shape wait for its one
// evaluation. A failed evaluation is not kept. EvalShape is
// deterministic and the returned ShapeStats is shared, so callers must
// treat it as read-only. The memo key is tileDims' bytes, so every order
// and shape is memoized and callers may reuse the slice.
func (s *Stats) EvalShape(tileDims []int) (*ShapeStats, error) {
	var buf [64]byte
	kb := buf[:0]
	for _, v := range tileDims {
		kb = binary.LittleEndian.AppendUint64(kb, uint64(v))
	}
	return s.shapes.Do(string(kb), shapeMemoCap, func() (*ShapeStats, error) {
		return s.evalShape(tileDims)
	})
}

// evalShape is EvalShape without the memo.
//
// It groups the micro keys by sorting instead of hashing: each micro key
// decodes to its micro coordinates, which map to its tile's key in the
// shape's outer grid (the same row-major layout, so ascending keys are
// the tiles' lexicographic order), one radix sort brings each tile's
// members together, and a run-length pass sums them. Tiles come out in
// canonical key order with no hash map and no comparison sort. This is
// the optimizer's hottest loop: EvalShape runs per (ref, candidate
// shape) and ms.keys is the full micro-tile population.
func (s *Stats) evalShape(tileDims []int) (*ShapeStats, error) {
	ms := s.micro
	if ms == nil {
		return nil, fmt.Errorf("stats: no micro summary collected")
	}
	n := len(ms.dims)
	if len(tileDims) != n {
		return nil, fmt.Errorf("stats: %d tile dims for order-%d tensor", len(tileDims), n)
	}
	if len(ms.keys) > math.MaxInt32 {
		return nil, fmt.Errorf("stats: %d micro keys exceed the int32 entry index", len(ms.keys))
	}
	// factors[a] is the micro tiles per tile on axis a. A decoded micro
	// grid must be the one its dims imply, within the tiler's per-axis
	// cap: the occupancy tables below are sized by the grid.
	factors := make([]uint64, n)
	for a, td := range tileDims {
		if td < 1 {
			return nil, fmt.Errorf("stats: tile dim %d on axis %d", td, a)
		}
		if td%ms.microDims[a] != 0 {
			return nil, fmt.Errorf("stats: tile dim %d on axis %d is not a multiple of micro dim %d",
				td, a, ms.microDims[a])
		}
		if md := ms.microDims[a]; ms.outerDims[a] != (ms.dims[a]+md-1)/md || ms.outerDims[a] > tiling.MaxAxisTiles {
			return nil, fmt.Errorf("stats: micro grid extent %d on axis %d for dim %d", ms.outerDims[a], a, ms.dims[a])
		}
		factors[a] = uint64(td / ms.microDims[a])
	}

	out := &ShapeStats{
		TileDims:  append([]int(nil), tileDims...),
		OuterDims: make([]int, n),
		Marginal:  make([]float64, n),
		Occupied:  make([]int, n),
	}
	area := 1.0
	for a := range out.OuterDims {
		out.OuterDims[a] = (ms.dims[a] + tileDims[a] - 1) / tileDims[a]
		area *= float64(tileDims[a])
	}
	// A decoded summary may claim a grid that has no keys; the tile grid
	// is no finer than the micro grid, so it has keys when that does.
	micro, err := radix.NewCodec(ms.outerDims)
	if err != nil {
		return nil, fmt.Errorf("stats: micro grid: %w", err)
	}
	grid, _ := radix.NewCodec(out.OuterDims)

	// Outer key per micro entry, then one stable radix sort carrying the
	// entry index.
	keys := make([]uint64, len(ms.keys))
	idx := make([]int32, len(ms.keys))
	size := micro.Size()
	for i, k := range ms.keys {
		if k >= size {
			return nil, fmt.Errorf("stats: micro key %d outside the %v grid", k, ms.outerDims)
		}
		keys[i] = micro.Coarsen(k, factors, grid)
		idx[i] = int32(i)
	}
	keys, idx = radix.Sort(keys, make([]uint64, len(keys)), idx, make([]int32, len(idx)))

	tiles := countRuns(keys)
	mc := make([]int, n)
	out.NumTiles = tiles
	out.FPScale = ms.fpScale
	out.GroupOuter = make([]int32, tiles*n)
	out.GroupFP = make([]float64, tiles)
	occTotal := 0
	for _, d := range out.OuterDims {
		occTotal += d
	}
	occBack := make([]bool, occTotal)
	axisOcc := make([][]bool, n)
	for a, off := 0, 0; a < n; a++ {
		axisOcc[a] = occBack[off : off+out.OuterDims[a] : off+out.OuterDims[a]]
		off += out.OuterDims[a]
	}
	totalFP, totalNNZ := 0, 0
	for i, t := 0, 0; i < len(keys); t++ {
		k := keys[i]
		keys[t] = k // keys[:tiles] becomes the tiles' keys
		nnz, fp := 0, 0
		for ; i < len(keys) && keys[i] == k; i++ {
			nnz += int(ms.nnz[idx[i]])
			fp += int(ms.footprint[idx[i]])
		}
		totalFP += fp
		totalNNZ += nnz
		out.MaxTile = max(out.MaxTile, fp)
		out.GroupFP[t] = float64(fp)
		oc := out.TileOuter(t)
		grid.Decode(mc, k)
		for a, c := range mc {
			oc[a] = checked.Int32(c)
			axisOcc[a][c] = true
		}
	}
	for a := 0; a < n; a++ {
		cnt := 0
		for _, b := range axisOcc[a] {
			if b {
				cnt++
			}
		}
		out.Occupied[a] = cnt
	}

	// The level-0 prefix is the first level's axis occupancy and the full
	// prefix is the tile itself; middle levels count level-order prefixes.
	out.Order = append([]int(nil), s.Order...)
	out.PrefixOccupied = make([]int, n)
	if n > 2 {
		out.PrefixOccupied = prefixCounts(grid, s.Order, keys[:tiles])
	} else if n > 0 {
		out.PrefixOccupied[0] = out.Occupied[s.Order[0]]
		out.PrefixOccupied[n-1] = tiles
	}

	if out.NumTiles > 0 {
		out.MaxTileBound = out.MaxTile
		out.SizeTile = ms.fpScale * float64(totalFP) / float64(out.NumTiles)
		out.MaxTile = int(ms.fpScale * float64(out.MaxTile))
		out.MeanNNZ = float64(totalNNZ) / float64(out.NumTiles)
		out.Density = out.MeanNNZ / area
		for i := range out.GroupFP {
			out.GroupFP[i] *= ms.fpScale
		}
	}
	domain := 1.0
	for _, d := range out.OuterDims {
		domain *= float64(d)
	}
	if domain > 0 {
		out.PTile = float64(out.NumTiles) / domain
	}
	for a := 0; a < n; a++ {
		if out.OuterDims[a] > 0 {
			out.Marginal[a] = float64(out.Occupied[a]) / float64(out.OuterDims[a])
		}
	}
	return out, nil
}

// countRuns returns the number of distinct values in ascending keys.
func countRuns(keys []uint64) int {
	runs := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			runs++
		}
	}
	return runs
}

// prefixCounts returns, for each level l, the number of distinct
// coordinate prefixes over levels 0..l (order[l] the axis at level l)
// among the cells of grid g that keys name: the level-order keys, sorted
// once, share a prefix key exactly when they share the prefix.
func prefixCounts(g *radix.Codec, order []int, keys []uint64) []int {
	level, lk := g.Transpose(order, keys)
	lk, _ = radix.Sort(lk, make([]uint64, len(lk)), nil, nil)
	counts := make([]int, len(order))
	for l := range counts {
		for i, k := range lk {
			if i == 0 || level.Prefix(k, l+1) != level.Prefix(lk[i-1], l+1) {
				counts[l]++
			}
		}
	}
	return counts
}

// MicroDims returns the micro tile dimensions candidate shapes must be
// multiples of.
func (s *Stats) MicroDims() []int {
	if s.micro == nil {
		return nil
	}
	return append([]int(nil), s.micro.microDims...)
}

// SnapToMicro rounds each tile dimension to the nearest positive multiple
// of the micro dimension, clamped to the tensor dimension rounded up to a
// micro multiple.
func (s *Stats) SnapToMicro(tileDims []int) []int {
	return s.SnapToMicroInto(make([]int, len(tileDims)), tileDims)
}

// SnapToMicroInto is SnapToMicro writing into dst (which must have
// len(tileDims) and may alias tileDims for in-place snapping). It returns
// dst. This is the allocation-free variant the model's snapping hot path
// uses.
func (s *Stats) SnapToMicroInto(dst, tileDims []int) []int {
	out := dst
	for a, td := range tileDims {
		m := s.micro.microDims[a]
		q := (td + m/2) / m
		if q < 1 {
			q = 1
		}
		maxQ := (s.Dims[a] + m - 1) / m
		if q > maxQ {
			q = maxQ
		}
		out[a] = q * m
	}
	return out
}
