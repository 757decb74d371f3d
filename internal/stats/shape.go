package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

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
	// totalNNZ and totalFP sum nnz and footprint over every micro tile:
	// every tile shape partitions the same members, so these are its
	// totals too, summed once per summary (withTotals).
	totalNNZ, totalFP int
}

// withTotals sums ms's totals and returns ms. Every constructor of a
// summary calls it once its columns are set.
func (ms *microSummary) withTotals() *microSummary {
	ms.totalNNZ, ms.totalFP = 0, 0
	for i := range ms.nnz {
		ms.totalNNZ += int(ms.nnz[i])
		ms.totalFP += int(ms.footprint[i])
	}
	return ms
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

	// fp holds each tile's uncalibrated member-sum footprint, in GroupFP's
	// order: the exact integers GroupFP, MaxTile, MaxTileBound and
	// SizeTile are derived from, and what a coarser shape sums when it is
	// evaluated from this one (Stats.evalShape).
	fp []int

	// projs memoizes Project per (shared, extras) axis-set pair; the
	// shape is shared through the bundle's shape memo, so every
	// consumer of the bundle shares these tables too.
	projs par.Memo[string, *Projection]
	// projBytes accounts for what projs holds: each projection's size
	// is added when the memo keeps it.
	projBytes atomic.Int64
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

// projMemoCap bounds one shape's projection memo. A shape is projected
// once per cofactor axis-set pair its kernels price it against, a few
// per kernel; an order-2 shape has 11 such pairs in all, an order-3 one
// 49. Once full, further pairs are projected without being kept.
const projMemoCap = 16

// Project returns the shape's Projection over the disjoint axis lists
// shared and extras. Results are memoized on the shape (up to
// projMemoCap pairs), one flight per axis-set pair, so repeated
// predictions at a memoized shape (the optimizer's sweep, every job of a
// batch sharing the bundle) read a sorted table instead of rebuilding
// it. A projection past the cap is neither kept nor charged. The result
// is shared and read-only.
func (sh *ShapeStats) Project(shared, extras []int) *Projection {
	var buf [16]byte
	kb := append(buf[:0], byte(len(shared)))
	for _, a := range shared {
		kb = binary.AppendUvarint(kb, uint64(a))
	}
	for _, a := range extras {
		kb = binary.AppendUvarint(kb, uint64(a))
	}
	key := string(kb)
	p, _ := sh.projs.DoKeep(key, projMemoCap, func() (*Projection, error) {
		return sh.project(shared, extras), nil
	}, func(p *Projection) {
		sh.projBytes.Add(p.heapBytes(len(shared)) + memoKeyBytes(key))
	})
	return p
}

// project is Project without the memo: it keys each tile's (shared,
// extras) tuple in the grid of those axes — shared fields first, so a
// shared key is a key prefix — orders the keys (sortCells) and counts
// distinct extras tuples per shared run. The axes are distinct axes of
// the shape, whose grid has keys, so both grids have keys too.
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
	pairs = sortCells(pairs, full.Size())
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

// sortCells returns keys, cells of a grid of the given size, in
// ascending order: read back distinct from a table of the grid's cells
// when the grid is dense in keys (radix.Dense), else radix-sorted with
// their duplicates. It reuses keys' storage.
func sortCells(keys []uint64, cells uint64) []uint64 {
	if !radix.Dense(cells, len(keys)) {
		keys, _ = radix.Sort(keys, make([]uint64, len(keys)), nil, nil)
		return keys
	}
	seen := make([]bool, cells)
	for _, k := range keys {
		seen[k] = true
	}
	keys = keys[:0]
	for k, s := range seen {
		if s {
			keys = append(keys, uint64(k))
		}
	}
	return keys
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
// and shape is memoized and callers may reuse the slice. What the memo
// keeps, and what kept shapes' projection memos keep, counts toward
// HeapBytes.
func (s *Stats) EvalShape(tileDims []int) (*ShapeStats, error) {
	var buf [64]byte
	kb := shapeKey(buf[:0], tileDims)
	// A landed shape is read without building the key's string.
	if sh, ok := s.shapes.Landed(string(kb)); ok {
		return sh, nil
	}
	key := string(kb)
	return s.shapes.DoKeep(key, shapeMemoCap, func() (*ShapeStats, error) {
		return s.evalShape(tileDims)
	}, func(sh *ShapeStats) {
		s.memoBytes.Add(sh.heapBytes() + memoKeyBytes(key))
	})
}

// ShapeLanded reports whether EvalShape(tileDims) is a memo hit: the
// bundle keeps the shape and its evaluation has finished.
func (s *Stats) ShapeLanded(tileDims []int) bool {
	var buf [64]byte
	_, ok := s.shapes.Landed(string(shapeKey(buf[:0], tileDims)))
	return ok
}

// shapeKey appends the shape memo's key for tileDims to kb: the dims'
// bytes, so every order and shape has its own key.
func shapeKey(kb []byte, tileDims []int) []byte {
	for _, v := range tileDims {
		kb = binary.LittleEndian.AppendUint64(kb, uint64(v))
	}
	return kb
}

// ObserveShapeEvals has f called once per shape EvalShape evaluates on
// the bundle (memo hits excluded), with derived reporting whether the
// shape was coarsened from a memoized shape rather than from the micro
// summary. A later call replaces f.
func (s *Stats) ObserveShapeEvals(f func(derived bool)) {
	s.evalObserver.Store(&f)
}

// evalShape is EvalShape without the memo: one coarsening group-by over
// a source. The source is the cheapest exact one: the memoized shape
// with the fewest tiles that refines tileDims (refiner), else the micro
// summary, which refines every shape.
//
// The group-by sorts instead of hashing: each source entry maps to its
// tile's key in the shape's outer grid (the same row-major layout, so
// ascending keys are the tiles' lexicographic order), one radix sort
// carrying the entry index brings each tile's members together, and a
// run-length pass sums their footprints. Tiles come out in canonical key
// order with no hash map and no comparison sort. Every footprint is an
// integer member sum and the nnz and footprint totals are the
// summary's, so the result is the same from either source. This is the
// optimizer's hottest loop: EvalShape runs per (ref, candidate shape).
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
	// A decoded micro grid must be the one its dims imply, within the
	// tiler's per-axis cap: the occupancy tables below are sized by the
	// grid.
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

	// Outer key per source entry, then the footprint sum of each run of
	// equal keys. factors[a] is the source cells per tile on axis a.
	factors := make([]uint64, n)
	var keys []uint64
	var fp []int
	src := s.refiner(out)
	if src == nil {
		for a, td := range tileDims {
			factors[a] = uint64(td / ms.microDims[a])
		}
		keys = make([]uint64, len(ms.keys))
		size := micro.Size()
		for i, k := range ms.keys {
			if k >= size {
				return nil, fmt.Errorf("stats: micro key %d outside the %v grid", k, ms.outerDims)
			}
			keys[i] = micro.Coarsen(k, factors, grid)
		}
		keys, fp = groupSums(keys, ms.footprint, grid.Size())
	} else {
		for a, td := range tileDims {
			if td%src.TileDims[a] == 0 {
				factors[a] = uint64(td / src.TileDims[a])
			} else {
				factors[a] = uint64(src.OuterDims[a]) // the tile spans the axis
			}
		}
		keys = make([]uint64, len(src.fp))
		c := make([]int, n)
		for t := range keys {
			for a, v := range src.TileOuter(t) {
				c[a] = int(uint64(v) / factors[a])
			}
			keys[t], _ = grid.Encode(c)
		}
		keys, fp = groupSums(keys, src.fp, grid.Size())
	}
	if h := s.evalObserver.Load(); h != nil {
		(*h)(src != nil)
	}

	tiles := len(keys)
	mc := make([]int, n)
	out.NumTiles = tiles
	out.FPScale = ms.fpScale
	out.fp = fp
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
	for t, k := range keys {
		out.MaxTileBound = max(out.MaxTileBound, fp[t])
		out.GroupFP[t] = ms.fpScale * float64(fp[t])
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
		out.PrefixOccupied = prefixCounts(grid, s.Order, keys)
	} else if n > 0 {
		out.PrefixOccupied[0] = out.Occupied[s.Order[0]]
		out.PrefixOccupied[n-1] = tiles
	}

	if out.NumTiles > 0 {
		out.SizeTile = ms.fpScale * float64(ms.totalFP) / float64(out.NumTiles)
		out.MaxTile = int(ms.fpScale * float64(out.MaxTileBound))
		out.MeanNNZ = float64(ms.totalNNZ) / float64(out.NumTiles)
		out.Density = out.MeanNNZ / area
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

// refiner returns the memoized shape with the fewest tiles whose grid
// refines sh's, or nil when none does. A shape refines sh when, on every
// axis, sh's tile dim is a multiple of its tile dim or sh's one tile
// spans the axis: each of its tiles then lies inside one of sh's. Which
// of several equally small shapes wins does not matter, as every source
// gives the same integers.
func (s *Stats) refiner(sh *ShapeStats) *ShapeStats {
	var best *ShapeStats
	s.shapes.Range(func(src *ShapeStats) {
		if best != nil && src.NumTiles >= best.NumTiles {
			return
		}
		for a, td := range sh.TileDims {
			if td%src.TileDims[a] != 0 && sh.OuterDims[a] != 1 {
				return
			}
		}
		best = src
	})
	return best
}

// groupSums folds the keys, entry i's key a cell of a grid of the given
// size, into the ascending distinct keys and the sum of w over each
// key's entries. It reuses keys' storage. A grid dense in keys
// (radix.Dense) sums into a table of its cells; a sparser one is one
// stable radix sort carrying the entry index. Sums are exact integers,
// so both give the same result.
func groupSums[W int32 | int](keys []uint64, w []W, cells uint64) ([]uint64, []int) {
	if radix.Dense(cells, len(keys)) {
		return denseSums(keys, w, cells)
	}
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = checked.Int32(i)
	}
	keys, idx = radix.Sort(keys, make([]uint64, len(keys)), idx, make([]int32, len(idx)))
	sums := make([]int, 0, countRuns(keys))
	t := 0
	for i := 0; i < len(keys); t++ {
		k := keys[i]
		keys[t] = k
		sum := 0
		for ; i < len(keys) && keys[i] == k; i++ {
			sum += int(w[idx[i]])
		}
		sums = append(sums, sum)
	}
	return keys[:t], sums
}

// denseSums is groupSums over a table of the grid's cells. A mark, not
// a nonzero sum, says a cell is present: a decoded summary may carry a
// zero footprint.
func denseSums[W int32 | int](keys []uint64, w []W, cells uint64) ([]uint64, []int) {
	sum := make([]int, cells)
	seen := make([]bool, cells)
	tiles := 0
	for i, k := range keys {
		sum[k] += int(w[i])
		if !seen[k] {
			seen[k] = true
			tiles++
		}
	}
	sums := make([]int, 0, tiles)
	keys = keys[:0]
	for k, s := range seen {
		if s {
			keys = append(keys, uint64(k))
			sums = append(sums, sum[k])
		}
	}
	return keys, sums
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
// among the cells of grid g that the ascending keys name. In level
// order, keys share a prefix exactly when they share the prefix key, so
// the level-order keys are counted in ascending order: the keys
// themselves when the order is natural, else their transpose, sorted
// once.
func prefixCounts(g *radix.Codec, order []int, keys []uint64) []int {
	level := g
	for l, a := range order {
		if l != a {
			var lk []uint64
			level, lk = g.Transpose(order, keys)
			keys, _ = radix.Sort(lk, make([]uint64, len(lk)), nil, nil)
			break
		}
	}
	return countPrefixes(level, len(order), keys)
}

// countPrefixes counts, per field l of an n-field grid g, the distinct
// prefixes of fields 0..l among ascending keys. Along ascending keys
// the prefix of fields 0..l changes exactly when a key reaches end[l],
// the first key past the current prefix; prefixes nest, so a key below
// the deepest proper prefix's end changes at most the full key. A
// division runs per prefix change, not per key.
func countPrefixes(g *radix.Codec, n int, keys []uint64) []int {
	counts := make([]int, n)
	if n == 0 {
		return counts
	}
	end := make([]uint64, n-1)
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		counts[n-1]++
		from := 0 // the shallowest field whose prefix changes at k
		if i > 0 {
			if n == 1 || k < end[n-2] {
				continue
			}
			from = n - 2
			for from > 0 && k >= end[from-1] {
				from--
			}
		}
		for l := from; l < n-1; l++ {
			s := g.Stride(l)
			end[l] = (k/s + 1) * s
			counts[l]++
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

// MicroDim returns the micro tile dimension of axis a, as MicroDims()[a]
// does, without copying the others.
func (s *Stats) MicroDim(a int) int { return s.micro.microDims[a] }

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
