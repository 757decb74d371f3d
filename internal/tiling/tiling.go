// Package tiling partitions sparse tensors in the coordinate space:
// every tensor axis a is split into tiles of size TileDims[a], producing a
// doubled index space of outer (tile) and inner (within-tile) coordinates
// — the A[i,k] → A[i',k',i,k] transformation of the paper (§2.2). A tiled
// tensor stores one inner CSF per non-empty tile plus an outer CSF over
// tile coordinates; tile footprints (values + metadata words) define the
// traffic unit.
package tiling

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"d2t2/internal/checked"
	"d2t2/internal/formats"
	"d2t2/internal/par"
	"d2t2/internal/radix"
	"d2t2/internal/tensor"
)

// Tile is one non-empty coordinate-space tile: its outer coordinates (in
// original axis order) and the CSF over its inner coordinates (in the
// tensor's level order).
type Tile struct {
	Outer     []int
	CSF       *formats.CSF
	Footprint int // words: values + all segment and coordinate arrays
	// Members is non-nil only for packed super-tiles (see PackTiles): the
	// base tiles indexed through the packed directory. CSF is nil then.
	Members []*Tile
}

// NNZ returns the number of stored values in the tile (summed over
// members for packed tiles).
func (t *Tile) NNZ() int {
	if t.Members != nil {
		n := 0
		for _, m := range t.Members {
			n += m.NNZ()
		}
		return n
	}
	return t.CSF.NNZ()
}

// TiledTensor is a sparse tensor partitioned into coordinate-space tiles.
type TiledTensor struct {
	Dims      []int // original dimension sizes, axis order
	TileDims  []int // tile size per axis
	OuterDims []int // ceil(Dims/TileDims) per axis
	// Order is the level order used for both the outer CSF and each inner
	// CSF: Order[l] is the axis stored at level l (the dataflow order).
	Order []int
	// Tiles maps the key of a tile's outer coordinates (axis order) in
	// the radix.Codec of OuterDims to the tile.
	Tiles map[uint64]*Tile
	// OuterCSF is the CSF over outer tile coordinates in Order; its leaf
	// values are the tile footprints in words.
	OuterCSF *formats.CSF
	// PackedFrom is the member tile size per axis for packed tensors
	// built by PackTiles (nil for directly tiled tensors).
	PackedFrom []int

	TotalFootprint int
	MaxFootprint   int
	NNZ            int

	grid *radix.Codec
}

// NumTiles returns the number of non-empty tiles.
func (tt *TiledTensor) NumTiles() int { return len(tt.Tiles) }

// MeanFootprint is the paper's SizeTile: average footprint over non-empty
// tiles.
func (tt *TiledTensor) MeanFootprint() float64 {
	if len(tt.Tiles) == 0 {
		return 0
	}
	return float64(tt.TotalFootprint) / float64(len(tt.Tiles))
}

// Lookup returns the tile at the given outer coordinates, or nil (also
// for coordinates outside the grid).
func (tt *TiledTensor) Lookup(outer ...int) *Tile {
	k, ok := tt.grid.Encode(outer)
	if !ok {
		return nil
	}
	return tt.Tiles[k]
}

// SortedKeys returns tile keys sorted by outer coordinates in Order
// (useful for deterministic iteration): one radix sort of the tiles'
// level-order keys carrying each tile's index.
func (tt *TiledTensor) SortedKeys() []uint64 {
	m := len(tt.Tiles)
	keys := make([]uint64, 0, m)
	idx := make([]int32, m)
	for k := range tt.Tiles {
		idx[len(keys)] = checked.Int32(len(keys))
		keys = append(keys, k)
	}
	// Level-order keys order tiles like their coordinates level by level.
	_, ord := tt.grid.Transpose(tt.Order, keys)
	_, idx = radix.Sort(ord, make([]uint64, m), idx, make([]int32, m))
	out := make([]uint64, m)
	for i, j := range idx {
		out[i] = keys[j]
	}
	return out
}

// NewCtx partitions t into coordinate-space tiles of size tileDims (per
// axis) with inner/outer CSF levels following order (nil = natural),
// on `workers` goroutines (0 = all cores). The input must be
// duplicate-free (Dedup'd); entries are not modified. Entries are
// grouped by outer tile key with one counting pass or radix sort — no
// comparison sort over the whole tensor — and each tile's inner CSF is built
// independently on a worker pool. Tiles are merged in ascending key
// order, so the result is byte-identical for every worker count.
// Cancellation is cooperative: the parallel passes stop claiming work
// at the next item boundary once ctx is cancelled, the serial passes
// check ctx between phases, and the context's error is returned.
func NewCtx(ctx context.Context, t *tensor.COO, tileDims []int, order []int, workers int) (*TiledTensor, error) {
	n := t.Order()
	order, grid, outerDims, err := validateTiling(t, tileDims, order)
	if err != nil {
		return nil, err
	}

	tt := &TiledTensor{
		Dims:      append([]int(nil), t.Dims...),
		TileDims:  append([]int(nil), tileDims...),
		OuterDims: outerDims,
		Order:     append([]int(nil), order...),
		Tiles:     make(map[uint64]*Tile),
		NNZ:       t.NNZ(),
		grid:      grid,
	}

	gr, err := groupByOuter(ctx, t, tileDims, order, grid, workers)
	if err != nil {
		return nil, err
	}
	inner, groupKeys, starts, entOf := gr.inner, gr.groupKeys, gr.starts, gr.entOf

	innerDims := make([]int, n)
	for l, ax := range order {
		innerDims[l] = tileDims[ax]
	}

	// Pass 3 (parallel over chunks of groups): sort each group's entries
	// by inner coordinates in level order (a strict total order — the
	// input is duplicate-free), unless they arrived in that order, and
	// build its inner CSF. Workers write
	// disjoint slots of the per-group slices; no shared state. Each
	// worker reuses one scratch of column/value buffers across every
	// group it claims (grown once to the largest group, never
	// reallocated per tile), and the Tile structs and their
	// outer-coordinate slices come from two flat backing arrays instead
	// of per-group allocations — all three are retained by the result or
	// reused, so the per-group cost is the inner CSF's exact-sized arrays
	// and nothing else.
	tiles := make([]Tile, len(groupKeys))
	ocBack := make([]int, n*len(groupKeys))
	type tileScratch struct {
		cols [][]int32
		vals []float64
	}
	newScratch := func() *tileScratch { return &tileScratch{cols: make([][]int32, n)} }
	cmpInner := gr.cmpInner
	chunks := groupChunks(workers, starts)
	err = par.ForEachScratchCtx(ctx, workers, len(chunks), newScratch, func(c int, sc *tileScratch) error {
		for g := chunks[c][0]; g < chunks[c][1]; g++ {
			seg := entOf[starts[g]:starts[g+1]]
			if !gr.sorted {
				slices.SortFunc(seg, cmpInner)
			}
			if cap(sc.vals) < len(seg) {
				for l := 0; l < n; l++ {
					sc.cols[l] = make([]int32, len(seg))
				}
				sc.vals = make([]float64, len(seg))
			}
			cols := sc.cols
			vals := sc.vals[:len(seg)]
			for l := 0; l < n; l++ {
				col := cols[l][:len(seg)]
				for x, p := range seg {
					col[x] = inner[l][p]
				}
				cols[l] = col
			}
			for x, p := range seg {
				vals[x] = t.Vals[p]
			}
			// The CSF copies out of the scratch and shares innerDims/order —
			// both owned by this tiling and immutable from here on.
			csf := formats.BuildSortedUniqueShared(innerDims, tt.Order, cols, vals)
			oc := ocBack[g*n : (g+1)*n : (g+1)*n]
			grid.Decode(oc, groupKeys[g])
			tiles[g] = Tile{Outer: oc, CSF: csf, Footprint: csf.FootprintWords()}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 4 (serial): keyed merge in group order. The aggregates are an
	// integer sum and maximum. Tiles live in one flat array; the map
	// holds pointers into it.
	for g := range tiles {
		tile := &tiles[g]
		tt.Tiles[groupKeys[g]] = tile
		tt.TotalFootprint += tile.Footprint
		if tile.Footprint > tt.MaxFootprint {
			tt.MaxFootprint = tile.Footprint
		}
	}

	tt.buildOuterCSF()
	return tt, nil
}

// MaxAxisTiles caps a tile grid's extent along any one axis. Keys need
// only the grid product below 2^64 (radix.NewCodec); this cap bounds the
// per-axis tables the statistics build over a grid — occupancy vectors
// and their shift correlations, O(extent × shift) — so that a decoded
// partial or summary, which claims its grid without data to back it,
// costs no more than one the tiler produced.
const MaxAxisTiles = 1 << 21

// validateTiling checks the arities, the order's permutation property,
// the coordinate width, the per-axis tile cap and the outer grid's key
// bound for NewCtx and SummarizeCtx, returning the level order (natural when nil) and the
// outer grid's codec and extents. The math.MaxInt32 guard here bounds
// every outer/inner conversion downstream of both entry points.
func validateTiling(t *tensor.COO, tileDims, order []int) ([]int, *radix.Codec, []int, error) {
	n := t.Order()
	if len(tileDims) != n {
		return nil, nil, nil, fmt.Errorf("tiling: %d tile dims for order-%d tensor", len(tileDims), n)
	}
	if order == nil {
		order = make([]int, n)
		for a := range order {
			order[a] = a
		}
	}
	if len(order) != n {
		return nil, nil, nil, fmt.Errorf("tiling: order arity %d != %d", len(order), n)
	}
	if err := checkPermutation(order); err != nil {
		return nil, nil, nil, err
	}
	outerDims := make([]int, n)
	for a, td := range tileDims {
		if td < 1 {
			return nil, nil, nil, fmt.Errorf("tiling: tile dim %d on axis %d", td, a)
		}
		// Guard the int32 coordinate width up front so the per-entry
		// outer/inner conversions below cannot wrap (coordinates are
		// bounded by the axis dimension).
		if t.Dims[a] > math.MaxInt32 {
			return nil, nil, nil, fmt.Errorf("tiling: axis %d dimension %d exceeds the int32 coordinate width", a, t.Dims[a])
		}
		outerDims[a] = (t.Dims[a] + td - 1) / td
		if outerDims[a] > MaxAxisTiles {
			return nil, nil, nil, fmt.Errorf("tiling: axis %d has %d tiles, past the %d-tile axis cap", a, outerDims[a], MaxAxisTiles)
		}
	}
	grid, err := radix.NewCodec(outerDims)
	if err != nil {
		return nil, nil, nil, err
	}
	return order, grid, outerDims, nil
}

// checkPermutation rejects a level order that is not a permutation of
// the axes: a repeated axis would key every tile by one coordinate twice
// and never by the missing one, silently merging distinct tiles.
func checkPermutation(order []int) error {
	seen := make([]bool, len(order))
	for _, a := range order {
		if a < 0 || a >= len(order) || seen[a] {
			return fmt.Errorf("tiling: order %v is not a permutation of 0..%d", order, len(order)-1)
		}
		seen[a] = true
	}
	return nil
}

// grouping is the output of the group-by passes shared by the full tiler
// and the summary pass: per-entry inner coordinates per level, the group
// keys (outer grid keys, ascending), and entry indices sorted by group
// (group g owns entOf[starts[g]:starts[g+1]], in entry order).
type grouping struct {
	inner     [][]int32
	groupKeys []uint64
	starts    []int
	entOf     []int32
	// sorted reports that the entries arrived in strictly increasing
	// level order, so each group's entries are in inner level order
	// already and need no per-tile sort.
	sorted bool
}

// cmpInner orders entries p and q by inner coordinates in level order —
// a strict total order within a group, since the input is
// duplicate-free. Callers bind one method value shared by every worker:
// a per-group closure was one allocation per tile.
func (gr *grouping) cmpInner(p, q int32) int {
	for _, crd := range gr.inner {
		if d := crd[p] - crd[q]; d != 0 {
			return int(d)
		}
	}
	return 0
}

// chunksPerWorker is how many runs of groups each worker's share of a
// per-group pass is cut into. At micro tile sizes a group is a sort of a
// few entries, far cheaper than a fan-out claim, so the passes claim
// runs of groups; a few runs per worker keep the load balanced.
const chunksPerWorker = 4

// groupChunks cuts groups into the per-group passes' fan-out items:
// chunksPerWorker contiguous runs per worker, each holding about the
// same number of entries (a group's work grows with its entries, and
// the heavy tiles of a skewed tensor sit together). starts is the
// grouping's entry offsets: group g owns entries [starts[g],
// starts[g+1]).
func groupChunks(workers int, starts []int) [][2]int {
	groups := len(starts) - 1
	k := min(par.Workers(workers)*chunksPerWorker, groups)
	out := make([][2]int, 0, k)
	for c, lo := 1, 0; lo < groups; c++ {
		// The first group whose entries start at or past chunk c's share.
		hi := max(lo+1, sort.SearchInts(starts[:groups], starts[groups]*c/k))
		if c == k {
			hi = groups
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// groupByOuter runs passes 1–2 of the tiler: per-entry inner coordinates
// and outer grid keys in parallel, then a stable grouping of the entries
// by key — one counting pass over the grid's cells when the grid is
// dense in entries (radix.Dense), else one radix sort of the keys
// carrying each entry's index. Pass 1 also notes whether the entries
// arrived in level order, as a canonical tensor at natural order does:
// each group's entries are then in inner level order already. The
// caller must have validated the tiling via validateTiling.
func groupByOuter(ctx context.Context, t *tensor.COO, tileDims, order []int, grid *radix.Codec, workers int) (*grouping, error) {
	n := t.Order()
	nnz := t.NNZ()

	// Inner coordinates are remainders modulo the tile size, which
	// validateTiling capped at math.MaxInt32 — assert per axis so the
	// int32 narrowing in pass 1 is visibly safe without a per-entry
	// check. The grouping's entry indices are int32 too.
	for _, td := range tileDims {
		if td <= 0 || td > math.MaxInt32 {
			return nil, fmt.Errorf("tiling: tile dim %d out of int32 range", td)
		}
	}
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("tiling: %d entries exceed the int32 entry index", nnz)
	}

	// Pass 1 (parallel over disjoint entry ranges): per-entry inner
	// coordinates per level and the outer grid key (always in the grid:
	// COO coordinates lie inside the dims), and whether each range's
	// entries follow their predecessors in level order. The key is
	// built one field at a time, each adding its outer coordinate times
	// the field's stride; a power-of-two tile dim splits a coordinate
	// with a shift and a mask instead of a division.
	inner := make([][]int32, n)
	for l := range inner {
		inner[l] = make([]int32, nnz)
	}
	gkeys := make([]uint64, nnz)
	chunks := par.Chunks(workers, nnz)
	inOrder := make([]bool, len(chunks))
	if err := par.ForEachCtx(ctx, workers, len(chunks), func(c int) error {
		lo, hi := chunks[c][0], chunks[c][1]
		keys := gkeys[lo:hi]
		for l, ax := range order {
			crds, in, stride := t.Crds[ax][lo:hi], inner[l][lo:hi], grid.Stride(ax)
			if td := tileDims[ax]; td&(td-1) == 0 {
				shift, mask := uint(bits.TrailingZeros(uint(td))), td-1
				for i, crd := range crds {
					in[i] = int32(crd & mask)
					keys[i] += uint64(crd>>shift) * stride
				}
			} else {
				for i, crd := range crds {
					q := crd / td
					in[i] = int32(crd - q*td)
					keys[i] += uint64(q) * stride
				}
			}
		}
		ordered := true
		for p := max(lo, 1); p < hi && ordered; p++ {
			ordered = levelLess(t, order, p-1, p)
		}
		inOrder[c] = ordered
		return nil
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 2 (serial): group the entries by tile, stably.
	gr := &grouping{inner: inner, sorted: !slices.Contains(inOrder, false)}
	if radix.Dense(grid.Size(), nnz) {
		gr.countGroups(gkeys, grid.Size())
	} else {
		gr.sortGroups(gkeys)
	}
	return gr, nil
}

// sortGroups groups entries by their keys with one stable radix sort of
// the keys carrying each entry's index; runs of equal keys are the
// groups. It reuses keys' storage. Callers hold fewer than 2^31 keys
// (groupByOuter checks).
func (gr *grouping) sortGroups(keys []uint64) {
	idx := make([]int32, len(keys))
	for p := int32(0); int(p) < len(idx); p++ {
		idx[p] = p
	}
	keys, gr.entOf = radix.Sort(keys, make([]uint64, len(keys)), idx, make([]int32, len(keys)))
	for p, k := range keys {
		if p == 0 || k != keys[p-1] {
			gr.groupKeys = append(gr.groupKeys, k)
			gr.starts = append(gr.starts, p)
		}
	}
	gr.starts = append(gr.starts, len(keys))
}

// countGroups groups entries by their keys, cells of a grid of the given
// size, with one counting pass: count per cell, place each entry at its
// cell's next slot in entry order. Groups come out in ascending key
// order with entries in entry order, as the radix path leaves them.
// Callers hold fewer than 2^31 keys (groupByOuter checks).
func (gr *grouping) countGroups(keys []uint64, cells uint64) {
	next := make([]int32, cells)
	for _, k := range keys {
		next[k]++
	}
	groups := 0
	for _, c := range next {
		if c > 0 {
			groups++
		}
	}
	gr.groupKeys = make([]uint64, 0, groups)
	gr.starts = make([]int, 0, groups+1)
	off := int32(0)
	for k, c := range next {
		if c > 0 {
			gr.groupKeys = append(gr.groupKeys, uint64(k))
			gr.starts = append(gr.starts, int(off))
			next[k] = off
			off += c
		}
	}
	gr.starts = append(gr.starts, len(keys))
	gr.entOf = make([]int32, len(keys))
	for p := int32(0); int(p) < len(keys); p++ {
		k := keys[p]
		gr.entOf[next[k]] = p
		next[k]++
	}
}

// levelLess reports whether entry p of t precedes entry q in level
// order: coordinates compared level by level, order[l] the axis at level
// l.
func levelLess(t *tensor.COO, order []int, p, q int) bool {
	for _, ax := range order {
		if c, d := t.Crds[ax][p], t.Crds[ax][q]; c != d {
			return c < d
		}
	}
	return false
}

// TileSummary is the allocation-light alternative to a full tiling: the
// per-tile aggregates the statistics collector's micro summary needs —
// keys, entry counts and CSF footprints — computed without materializing
// an inner CSF per tile. For a tiling at micro granularity this replaces
// tens of thousands of short-lived CSF allocations with three flat
// arrays.
type TileSummary struct {
	OuterDims []int    // tile grid extent per axis
	Keys      []uint64 // grid key (radix.Codec of OuterDims) per non-empty tile, ascending
	NNZ       []int32  // stored entries per tile, parallel to Keys
	Footprint []int32  // CSF footprint words per tile, parallel to Keys
	// Fibers[l][i] is the fiber count at CSF level l of tile Keys[i] —
	// exactly FiberCount(l) of the inner CSF NewCtx would build. The
	// statistics merge path sums these per level instead of re-walking
	// tiles, so per-chunk partials reproduce ProbIndex exactly.
	Fibers [][]int32

	TotalFootprint int
}

// SummarizeCtx computes the TileSummary of tiling t by tileDims in level
// order `order` (nil = natural). The per-tile footprints are exactly what
// NewCtx would record (FootprintWords of the per-tile CSF): entries ×
// one value word, plus per level the fiber count (coordinate words) and
// the segment words (parent fibers + 1; 2 at the root). Results are
// byte-identical at any worker count.
func SummarizeCtx(ctx context.Context, t *tensor.COO, tileDims, order []int, workers int) (*TileSummary, error) {
	n := t.Order()
	order, grid, outerDims, err := validateTiling(t, tileDims, order)
	if err != nil {
		return nil, err
	}
	gr, err := groupByOuter(ctx, t, tileDims, order, grid, workers)
	if err != nil {
		return nil, err
	}
	inner, groupKeys, starts, entOf := gr.inner, gr.groupKeys, gr.starts, gr.entOf

	sum := &TileSummary{
		OuterDims: outerDims,
		Keys:      groupKeys,
		NNZ:       make([]int32, len(groupKeys)),
		Footprint: make([]int32, len(groupKeys)),
		Fibers:    make([][]int32, n),
	}
	fibBack := make([]int32, n*len(groupKeys))
	for l := 0; l < n; l++ {
		sum.Fibers[l] = fibBack[l*len(groupKeys) : (l+1)*len(groupKeys) : (l+1)*len(groupKeys)]
	}

	cmpInner := gr.cmpInner
	// Parallel over chunks of groups: sort each group's entries by inner
	// coordinates (the same strict total order the CSF build uses),
	// unless they arrived in that order, and
	// count fibers per level by divergence — a fiber opens at every entry
	// whose path diverges from its predecessor's at or above that level.
	// Workers write disjoint runs of per-group slots; nothing here
	// allocates.
	chunks := groupChunks(workers, starts)
	if err := par.ForEachCtx(ctx, workers, len(chunks), func(c int) error {
		var fibArr [8]int
		fib := fibArr[:]
		if n > len(fibArr) {
			fib = make([]int, n)
		}
		for g := chunks[c][0]; g < chunks[c][1]; g++ {
			seg := entOf[starts[g]:starts[g+1]]
			if !gr.sorted {
				slices.SortFunc(seg, cmpInner)
			}
			// Footprint = values + Σ_l coords (fibers[l]) + Σ_l segment
			// words (fibers[l-1]+1 per level, 2 at the root — an n+1
			// constant plus every non-leaf level's fiber count repeated as
			// its child's segment starts).
			words := len(seg) + n + 1
			for l := 0; l < n; l++ {
				fib[l] = 1 // the first entry opens every level
			}
			for x := 1; x < len(seg); x++ {
				p, q := seg[x], seg[x-1]
				div := 0
				for div < n && inner[div][p] == inner[div][q] {
					div++
				}
				for l := div; l < n; l++ {
					fib[l]++
				}
			}
			for l := 0; l < n; l++ {
				words += fib[l]
				if l < n-1 {
					words += fib[l] // segment entries of level l+1
				}
			}
			sum.NNZ[g] = checked.Int32(len(seg))
			sum.Footprint[g] = checked.Int32(words)
			for l := 0; l < n; l++ {
				sum.Fibers[l][g] = checked.Int32(fib[l])
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Groups come out in ascending key order, the canonical order the
	// stats micro summary serializes.
	for _, fp := range sum.Footprint {
		sum.TotalFootprint += int(fp)
	}
	return sum, nil
}

// buildOuterCSF constructs the CSF over outer tile coordinates whose leaf
// values are tile footprints.
func (tt *TiledTensor) buildOuterCSF() {
	oc := tensor.New(tt.OuterDims...)
	for _, k := range tt.SortedKeys() {
		tile := tt.Tiles[k]
		oc.Append(tile.Outer, float64(tile.Footprint))
	}
	tt.OuterCSF = formats.Build(oc, tt.Order)
}

// ToCOO reassembles the original tensor from the tiles (for testing).
func (tt *TiledTensor) ToCOO() *tensor.COO {
	out := tensor.New(tt.Dims...)
	coord := make([]int, len(tt.Dims))
	for _, tile := range tt.Tiles {
		sub := tile.CSF.ToCOO() // axis order restored by CSF
		for p := 0; p < sub.NNZ(); p++ {
			for a := range coord {
				coord[a] = tile.Outer[a]*tt.TileDims[a] + sub.Crds[a][p]
			}
			out.Append(coord, sub.Vals[p])
		}
	}
	return out
}

// Validate checks the tiled tensor's internal invariants: outer
// coordinates within the outer grid, per-tile footprints consistent with
// their CSFs, aggregate totals matching, and nnz conservation. Intended
// for tests and debugging.
func (tt *TiledTensor) Validate() error {
	total, max, nnz := 0, 0, 0
	for k, tile := range tt.Tiles {
		if key, ok := tt.grid.Encode(tile.Outer); !ok || key != k {
			return fmt.Errorf("tiling: tile at %v of the %v grid stored under key %d", tile.Outer, tt.OuterDims, k)
		}
		if tile.Members == nil {
			if got := tile.CSF.FootprintWords(); got != tile.Footprint {
				return fmt.Errorf("tiling: tile %v footprint %d != CSF %d", tile.Outer, tile.Footprint, got)
			}
		}
		total += tile.Footprint
		if tile.Footprint > max {
			max = tile.Footprint
		}
		nnz += tile.NNZ()
	}
	if total != tt.TotalFootprint || max != tt.MaxFootprint {
		return fmt.Errorf("tiling: aggregate footprints %d/%d != recorded %d/%d",
			total, max, tt.TotalFootprint, tt.MaxFootprint)
	}
	if nnz != tt.NNZ {
		return fmt.Errorf("tiling: tiles hold %d entries, tensor recorded %d", nnz, tt.NNZ)
	}
	return nil
}

// DenseFootprintWords returns the CSF footprint of a completely dense tile
// with the given per-level dimensions: the worst case the Conservative
// scheme provisions for.
func DenseFootprintWords(tileDims []int) int {
	words := 0
	prod := 1
	for _, d := range tileDims {
		// Each level stores prod*d coordinates and prod+1 segment bounds.
		words += prod*d + prod + 1
		prod *= d
	}
	words += prod // values
	return words
}

// ConservativeSquare returns the largest square tile size (power of two)
// whose fully dense footprint fits in bufferWords, for a tensor of the
// given order. This is the paper's Conservative scheme tile dimension.
func ConservativeSquare(bufferWords, order int) int {
	t := 1
	for t <= math.MaxInt/2 && denseSquareFits(2*t, order, bufferWords) {
		t *= 2
	}
	return t
}

// denseSquareFits reports whether DenseFootprintWords of a side^order
// tile is at most limit. It sums in uint64 and stops once past the
// limit, so a side whose footprint would overflow int never fits.
func denseSquareFits(side, order, limit int) bool {
	if limit < 0 {
		return false
	}
	lim, s := uint64(limit), uint64(side)
	words, prod := uint64(0), uint64(1)
	for range order {
		hi, level := bits.Mul64(prod, s)
		if hi != 0 || level > lim {
			return false
		}
		// Each level stores prod*side coordinates and prod+1 segment bounds.
		if words += level; words > lim {
			return false
		}
		if words += prod + 1; words > lim {
			return false
		}
		prod = level
	}
	return words+prod <= lim // values
}
