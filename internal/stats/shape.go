package stats

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"d2t2/internal/checked"
	"d2t2/internal/radix"
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
	projMu sync.Mutex
	projs  []projEntry
}

type projEntry struct {
	shared, extras []int
	p              *Projection
}

// TileOuter returns tile t's outer coordinates in axis order, a view
// into GroupOuter.
func (sh *ShapeStats) TileOuter(t int) []int32 {
	n := len(sh.OuterDims)
	return sh.GroupOuter[t*n : (t+1)*n : (t+1)*n]
}

// Projection is the shape's tiles seen through two disjoint axis sets:
// Keys holds every distinct ProjKey over the shared axes, ascending, and
// Count[i] the number of distinct extras tuples among the tiles whose
// shared key is Keys[i]. With no extras axes every count is 1, so
// presence is the filter test.
type Projection struct {
	Keys  []uint64
	Count []int32
}

// Lookup returns the count stored for key, or 0 when no tile projects
// onto it.
func (p *Projection) Lookup(key uint64) int32 {
	if i, ok := slices.BinarySearch(p.Keys, key); ok {
		return p.Count[i]
	}
	return 0
}

// ProjKey packs the outer coordinates at the given axis positions into
// one key, tiling.KeyShift bits per coordinate, first axis most
// significant. Any set of distinct axes of a shape fits, since shapes
// have at most tiling.MaxOrder axes.
func ProjKey(oc []int32, axes []int) uint64 {
	var k uint64
	for _, a := range axes {
		k = k<<tiling.KeyShift | uint64(oc[a])
	}
	return k
}

// Project returns the shape's Projection over the disjoint axis lists
// shared and extras. Results are memoized on the shape, one per axis-set
// pair, so repeated predictions at a memoized shape (the optimizer's
// sweep, every job of a batch sharing the bundle) read a sorted table
// instead of rebuilding it. The result is shared and read-only; the
// argument slices are copied into the memo key.
func (sh *ShapeStats) Project(shared, extras []int) *Projection {
	sh.projMu.Lock()
	p := sh.lookupProj(shared, extras)
	sh.projMu.Unlock()
	if p != nil {
		return p
	}
	p = sh.project(shared, extras)
	sh.projMu.Lock()
	defer sh.projMu.Unlock()
	if prev := sh.lookupProj(shared, extras); prev != nil {
		// A concurrent projection won the race; both are identical —
		// keep the first for stability.
		return prev
	}
	sh.projs = append(sh.projs, projEntry{slices.Clone(shared), slices.Clone(extras), p})
	return p
}

// lookupProj finds a memoized projection; the caller holds projMu.
func (sh *ShapeStats) lookupProj(shared, extras []int) *Projection {
	for _, e := range sh.projs {
		if slices.Equal(e.shared, shared) && slices.Equal(e.extras, extras) {
			return e.p
		}
	}
	return nil
}

// project is Project without the memo: it packs each tile's (shared,
// extras) tuple into one key — shared fields above extras fields, at
// most tiling.MaxOrder fields in all — radix-sorts the keys and counts
// distinct extras tuples per shared run.
func (sh *ShapeStats) project(shared, extras []int) *Projection {
	extBits := uint(tiling.KeyShift * len(extras))
	pairs := make([]uint64, len(sh.GroupFP))
	for t := range pairs {
		oc := sh.TileOuter(t)
		pairs[t] = ProjKey(oc, shared)<<extBits | ProjKey(oc, extras)
	}
	pairs, _ = radix.Sort(pairs, make([]uint64, len(pairs)), nil, nil)
	keys := countRuns(pairs, extBits)
	p := &Projection{Keys: make([]uint64, 0, keys), Count: make([]int32, 0, keys)}
	for i, v := range pairs {
		switch {
		case i == 0 || v>>extBits != pairs[i-1]>>extBits:
			p.Keys = append(p.Keys, v>>extBits)
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

// shapeKey is a comparable memo key: tile dims up to tiling.MaxOrder
// axes, the most a micro summary has. Longer dims bypass the memo (and
// evalShape rejects them).
type shapeKey struct {
	n    int
	dims [tiling.MaxOrder]int32
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
	if len(tileDims) > tiling.MaxOrder {
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
//
// It groups the micro keys by sorting instead of hashing: each micro key
// maps to its tile's mixed-radix outer key Σ oc[a]·stride[a] (axis 0
// most significant, so ascending keys are the lexicographic order of
// tiling.Key), one radix sort brings each tile's members together, and
// a run-length pass sums them. Tiles come out in canonical key order
// with no hash map and no comparison sort. This is the optimizer's
// hottest loop: EvalShape runs per (ref, candidate shape) and ms.keys is
// the full micro-tile population.
func (s *Stats) evalShape(tileDims []int) (*ShapeStats, error) {
	ms := s.micro
	if ms == nil {
		return nil, fmt.Errorf("stats: no micro summary collected")
	}
	n := len(ms.dims)
	if len(tileDims) != n {
		return nil, fmt.Errorf("stats: %d tile dims for order-%d tensor", len(tileDims), n)
	}
	if n > tiling.MaxOrder {
		return nil, fmt.Errorf("stats: order-%d micro summary exceeds the order-%d tile-key limit", n, tiling.MaxOrder)
	}
	if len(ms.keys) > math.MaxInt32 {
		return nil, fmt.Errorf("stats: %d micro keys exceed the int32 entry index", len(ms.keys))
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
	// Row-major place values: Σ oc[a]·stride[a] orders tiles like
	// tiling.Key. A decoded summary may claim a grid no tile key spans.
	stride := make([]uint64, n)
	span := uint64(1)
	for a := n - 1; a >= 0; a-- {
		stride[a] = span
		hi, lo := bits.Mul64(span, uint64(out.OuterDims[a]))
		if hi != 0 {
			return nil, fmt.Errorf("stats: outer grid %v overflows a uint64 tile key", out.OuterDims)
		}
		span = lo
	}

	// Outer key per micro entry, then one stable radix sort carrying the
	// entry index.
	keys := make([]uint64, len(ms.keys))
	idx := make([]int32, len(ms.keys))
	mc := make([]int, n)
	for i, k := range ms.keys {
		tiling.UnkeyInto(mc, k)
		var g uint64
		for a, c := range mc {
			g += uint64(c/factors[a]) * stride[a]
		}
		keys[i] = g
		idx[i] = int32(i)
	}
	keys, idx = radix.Sort(keys, make([]uint64, len(keys)), idx, make([]int32, len(idx)))

	tiles := countRuns(keys, 0)
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
		for a := n - 1; a >= 0; a-- {
			d := uint64(out.OuterDims[a])
			oc[a] = checked.Int32(int(k % d))
			k /= d
			axisOcc[a][oc[a]] = true
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
	// prefix is the tile itself. Order 3 (the tiling limit) adds one
	// middle level: the distinct level-0/level-1 prefixes, counted in one
	// sort of the tiles' prefix keys.
	out.Order = append([]int(nil), s.Order...)
	out.PrefixOccupied = make([]int, n)
	if n > 0 {
		out.PrefixOccupied[0] = out.Occupied[s.Order[0]]
		out.PrefixOccupied[n-1] = tiles
	}
	if n == 3 {
		o0, o1 := s.Order[0], s.Order[1]
		pks := make([]uint64, tiles)
		for t := range pks {
			oc := out.TileOuter(t)
			pks[t] = uint64(oc[o0])*uint64(out.OuterDims[o1]) + uint64(oc[o1])
		}
		pks, _ = radix.Sort(pks, make([]uint64, tiles), nil, nil)
		out.PrefixOccupied[1] = countRuns(pks, 0)
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

// countRuns returns the number of distinct values of key>>shift in
// ascending keys.
func countRuns(keys []uint64, shift uint) int {
	runs := 0
	for i, k := range keys {
		if i == 0 || k>>shift != keys[i-1]>>shift {
			runs++
		}
	}
	return runs
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
