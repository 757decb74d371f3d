package stats

import (
	"context"
	"fmt"
	"sort"

	"d2t2/internal/checked"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// microSummary is a compact occupancy map of the tensor at micro-tile
// granularity (base tile / MicroDiv per axis). It is what lets the model
// re-evaluate occupancy statistics exactly at any candidate tile shape
// whose dimensions are micro multiples, instead of assuming P_tile stays
// constant across shapes.
type microSummary struct {
	dims      []int // original dims
	microDims []int // micro tile size per axis
	outerDims []int // micro grid extent per axis
	keys      []uint64
	nnz       []int32
	footprint []int32
	// fpScale calibrates the Σ-of-member-footprints estimate: merging
	// micro CSFs shares upper-level metadata, so the sum overestimates a
	// retiled CSF's footprint. The scale is fit once against the exact
	// base tiling and applied to every candidate shape.
	fpScale float64
}

func buildMicroSummary(ctx context.Context, t *tensor.COO, tt *tiling.TiledTensor, microDiv, workers int) (*microSummary, error) {
	if microDiv < 1 {
		microDiv = 1
	}
	md := make([]int, len(tt.TileDims))
	for a, td := range tt.TileDims {
		md[a] = td / microDiv
		if md[a] < 1 {
			md[a] = 1
		}
	}
	ms := &microSummary{
		dims:      append([]int(nil), t.Dims...),
		microDims: md,
	}
	// Keys are stored in ascending order. The consumers aggregate the
	// micro entries order-insensitively (integer sums, maxima, set
	// counts), but the Portable encoding serializes this table verbatim —
	// a canonical order keeps the portable bytes byte-identical across
	// runs and worker counts.
	estBase := 0
	if microDiv == 1 {
		// Fast path: at micro = base the existing tiling IS the summary; no
		// second tiling pass is needed (this keeps MicroDiv=1 collection at
		// CSF-traversal cost, the regime of the paper's Fig. 7 overheads).
		ms.outerDims = append([]int(nil), tt.OuterDims...)
		ms.keys = make([]uint64, 0, len(tt.Tiles))
		for k := range tt.Tiles {
			ms.keys = append(ms.keys, k)
		}
		sort.Slice(ms.keys, func(i, j int) bool { return ms.keys[i] < ms.keys[j] })
		ms.nnz = make([]int32, len(ms.keys))
		ms.footprint = make([]int32, len(ms.keys))
		for i, k := range ms.keys {
			tile := tt.Tiles[k]
			ms.nnz[i] = checked.Int32(tile.NNZ())
			ms.footprint[i] = checked.Int32(tile.Footprint)
			estBase += tile.Footprint
		}
	} else {
		// The micro pass only needs per-tile entry counts and footprints,
		// so it runs the tiler's summary mode: same radix group-by, same
		// footprint words, no short-lived CSF per micro tile. The keys come
		// back sorted ascending already.
		sum, err := tiling.SummarizeCtx(ctx, t, md, tt.Order, workers)
		if err != nil {
			return nil, err
		}
		ms.outerDims = sum.OuterDims
		ms.keys = sum.Keys
		ms.nnz = sum.NNZ
		ms.footprint = sum.Footprint
		estBase = sum.TotalFootprint
	}

	// Fit the footprint calibration at the base shape, where the exact
	// retiled footprint is known from the initial tiling.
	ms.fpScale = 1
	if estBase > 0 && tt.TotalFootprint > 0 {
		ms.fpScale = float64(tt.TotalFootprint) / float64(estBase)
	}
	return ms, nil
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
	// GroupOuter/GroupFP enumerate every non-empty tile at this shape:
	// outer coordinates in axis order and the calibrated footprint. They
	// power the model's exact cross-operand refinement (DESIGN.md §4).
	GroupOuter [][]int32
	GroupFP    []float64
	// FPScale is the calibration factor already applied to GroupFP,
	// SizeTile and MaxTile (1 when uncalibrated). GroupFP[i]/FPScale
	// recovers tile i's uncalibrated member-sum — like MaxTileBound, a
	// true upper bound on the retiled CSF footprint. The overflow
	// methods divide the calibration back out so risk admission never
	// under-predicts (the calibrated estimate can sit below a tile's
	// real footprint at shapes far from the statistics frame).
	FPScale float64
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

// maxMemoOrder bounds the fixed-size dims array used as a comparable memo
// key; higher-order tensors (none exist in the 21-bit tile-key regime)
// bypass the memo.
const maxMemoOrder = 8

type shapeKey struct {
	n    int
	dims [maxMemoOrder]int32
}

// EvalShape aggregates the micro summary into tiles of the given
// per-axis dimensions, which must be positive multiples of the micro tile
// dimensions. Footprints are summed over members, a slight overestimate
// of a retiled CSF's footprint (shared upper-level metadata), consistent
// across candidates.
//
// Results are memoized on the bundle per tile shape (up to shapeMemoCap
// shapes): the optimizer's sweep re-derives the same shapes for many
// candidates, and every job holding the same *Stats shares them.
// EvalShape is deterministic and the returned ShapeStats is shared, so
// callers must treat it as read-only. tileDims is copied into the key,
// so callers may reuse the slice.
func (s *Stats) EvalShape(tileDims []int) (*ShapeStats, error) {
	if len(tileDims) > maxMemoOrder {
		return s.evalShape(tileDims)
	}
	key := shapeKey{n: len(tileDims)}
	for a, v := range tileDims {
		if !checked.FitsInt32(v) {
			return s.evalShape(tileDims) // no snapped shape is this large
		}
		key.dims[a] = checked.Int32(v)
	}
	s.shapeMu.Lock()
	sh, ok := s.shapes[key]
	s.shapeMu.Unlock()
	if ok {
		return sh, nil
	}
	sh, err := s.evalShape(tileDims)
	if err != nil {
		return nil, err
	}
	s.shapeMu.Lock()
	defer s.shapeMu.Unlock()
	if prev, ok := s.shapes[key]; ok {
		// A concurrent evaluation won the race; both results are
		// identical — keep the first for stability.
		return prev, nil
	}
	if len(s.shapes) < shapeMemoCap {
		if s.shapes == nil {
			s.shapes = make(map[shapeKey]*ShapeStats)
		}
		s.shapes[key] = sh
	}
	return sh, nil
}

// evalShape is EvalShape without the memo.
func (s *Stats) evalShape(tileDims []int) (*ShapeStats, error) {
	ms := s.micro
	if ms == nil {
		return nil, fmt.Errorf("stats: no micro summary collected")
	}
	n := len(ms.dims)
	if len(tileDims) != n {
		return nil, fmt.Errorf("stats: %d tile dims for order-%d tensor", len(tileDims), n)
	}
	factors := make([]int, n)
	for a, td := range tileDims {
		if td < 1 {
			return nil, fmt.Errorf("stats: tile dim %d on axis %d", td, a)
		}
		if td%ms.microDims[a] != 0 {
			return nil, fmt.Errorf("stats: tile dim %d on axis %d is not a multiple of micro dim %d",
				td, a, ms.microDims[a])
		}
		factors[a] = td / ms.microDims[a]
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

	// Aggregation state is laid out flat — an index map into an []agg
	// slice, []bool occupancy per axis over one backing array, and prefix
	// sets only for the middle levels (the first level's prefix count is
	// the axis occupancy of Order[0]; the last level's is NumTiles, both
	// free) — so the per-micro-key loop below allocates nothing. This is
	// the optimizer's hottest loop: EvalShape runs per (ref, candidate
	// shape) and ms.keys is the full micro-tile population.
	type agg struct {
		nnz, fp int
	}
	gid := make(map[uint64]int32, len(ms.keys)/2+1)
	aggs := make([]agg, 0, len(ms.keys)/2+1)
	gkeys := make([]uint64, 0, len(ms.keys)/2+1)
	occTotal := 0
	for a := 0; a < n; a++ {
		occTotal += out.OuterDims[a]
	}
	occBack := make([]bool, occTotal)
	axisOcc := make([][]bool, n)
	for a, off := 0, 0; a < n; a++ {
		axisOcc[a] = occBack[off : off+out.OuterDims[a] : off+out.OuterDims[a]]
		off += out.OuterDims[a]
	}
	var prefixOcc []map[uint64]struct{}
	if n > 2 {
		prefixOcc = make([]map[uint64]struct{}, n)
		for l := 1; l < n-1; l++ {
			prefixOcc[l] = make(map[uint64]struct{})
		}
	}
	mc := make([]int, n)
	oc := make([]int, n)
	for idx, k := range ms.keys {
		tiling.UnkeyInto(mc, k)
		for a := range oc {
			oc[a] = mc[a] / factors[a]
			axisOcc[a][oc[a]] = true
		}
		if n > 2 {
			pk := uint64(oc[s.Order[0]])
			for l := 1; l < n-1; l++ {
				pk = pk<<21 | uint64(oc[s.Order[l]])
				prefixOcc[l][pk] = struct{}{}
			}
		}
		gk := tiling.Key(oc)
		g, ok := gid[gk]
		if !ok {
			g = checked.Int32(len(aggs))
			gid[gk] = g
			aggs = append(aggs, agg{})
			gkeys = append(gkeys, gk)
		}
		aggs[g].nnz += int(ms.nnz[idx])
		aggs[g].fp += int(ms.footprint[idx])
	}
	out.Order = append([]int(nil), s.Order...)
	out.PrefixOccupied = make([]int, n)
	for a := 0; a < n; a++ {
		cnt := 0
		for _, b := range axisOcc[a] {
			if b {
				cnt++
			}
		}
		out.Occupied[a] = cnt
	}
	// The level-0 prefix is just the first level's axis coordinate and the
	// full prefix is the whole outer coordinate, so both counts come from
	// state already built; only middle levels (order ≥ 3) need real sets.
	if n > 0 {
		out.PrefixOccupied[0] = out.Occupied[s.Order[0]]
		out.PrefixOccupied[n-1] = len(aggs)
	}
	for l := 1; l < n-1; l++ {
		out.PrefixOccupied[l] = len(prefixOcc[l])
	}

	out.NumTiles = len(aggs)
	out.FPScale = ms.fpScale
	totalFP, totalNNZ := 0, 0
	// Sort the groups by key through a permutation so the enumeration
	// below is canonical regardless of first-appearance order.
	perm := make([]int, len(gkeys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool { return gkeys[perm[x]] < gkeys[perm[y]] })
	out.GroupOuter = make([][]int32, 0, len(aggs))
	out.GroupFP = make([]float64, 0, len(aggs))
	ocBack := make([]int32, n*len(aggs))
	for gi, pi := range perm {
		g := aggs[pi]
		totalFP += g.fp
		totalNNZ += g.nnz
		if g.fp > out.MaxTile {
			out.MaxTile = g.fp
		}
		tiling.UnkeyInto(mc, gkeys[pi])
		oc32 := ocBack[gi*n : (gi+1)*n : (gi+1)*n]
		for a, v := range mc {
			oc32[a] = checked.Int32(v)
		}
		out.GroupOuter = append(out.GroupOuter, oc32)
		out.GroupFP = append(out.GroupFP, float64(g.fp))
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
