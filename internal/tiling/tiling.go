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
	"slices"
	"sort"

	"d2t2/internal/checked"
	"d2t2/internal/formats"
	"d2t2/internal/par"
	"d2t2/internal/tensor"
)

// keyShift packs outer coordinates into a uint64 key, 21 bits per axis
// (sufficient for > 2M tiles per axis, far above anything we tile).
const keyShift = 21

// KeyShift is keyShift for callers outside the package that re-pack
// Key/Unkey keys field by field — the statistics merge path repacks tile
// keys into level order to count CSF fibers without building the CSF.
const KeyShift = keyShift

// MaxOrder is the highest tensor order whose outer coordinates fit one
// Key: three 21-bit fields. A fourth axis would wrap into the top bits
// and distinct tiles would share a key, so every tiling entry point
// rejects higher orders.
const MaxOrder = 64 / keyShift

// Key encodes outer tile coordinates (in axis order) as a map key.
func Key(outer []int) uint64 {
	var k uint64
	for _, c := range outer {
		k = k<<keyShift | uint64(c)
	}
	return k
}

// Unkey decodes a key produced by Key back into n outer coordinates.
func Unkey(k uint64, n int) []int {
	out := make([]int, n)
	UnkeyInto(out, k)
	return out
}

// UnkeyInto decodes a key produced by Key into dst (whose length sets
// the coordinate count) without allocating — the hot-loop form of Unkey
// used by shape re-evaluation over tens of thousands of micro keys.
func UnkeyInto(dst []int, k uint64) {
	for a := len(dst) - 1; a >= 0; a-- {
		dst[a] = int(k & (1<<keyShift - 1))
		k >>= keyShift
	}
}

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
	// Tiles maps Key(outer coords in axis order) to the tile.
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

// Lookup returns the tile at the given outer coordinates, or nil.
func (tt *TiledTensor) Lookup(outer ...int) *Tile {
	return tt.Tiles[Key(outer)]
}

// SortedKeys returns tile keys sorted by outer coordinates in Order
// (useful for deterministic iteration). Each key is decoded once into a
// level-order re-packing, so the sort compares plain uint64s instead of
// calling Unkey twice per comparison.
func (tt *TiledTensor) SortedKeys() []uint64 {
	n := len(tt.Dims)
	type keyPair struct{ ord, key uint64 }
	pairs := make([]keyPair, 0, len(tt.Tiles))
	c := make([]int, n)
	for k := range tt.Tiles {
		UnkeyInto(c, k)
		var ord uint64
		for _, ax := range tt.Order {
			ord = ord<<keyShift | uint64(c[ax])
		}
		pairs = append(pairs, keyPair{ord, k})
	}
	// Keys are unique and ord is a bijective re-packing, so this is a
	// strict total order identical to comparing coordinates level by level.
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].ord < pairs[b].ord })
	keys := make([]uint64, len(pairs))
	for i, p := range pairs {
		keys[i] = p.key
	}
	return keys
}

// Tile partitions t into coordinate-space tiles of size tileDims (per
// axis) with inner/outer CSF levels following order (nil = natural).
// The input must be duplicate-free (Dedup'd); entries are not modified.
// All cores are used; the result is byte-identical at any worker count
// (see NewParallel).
func New(t *tensor.COO, tileDims []int, order []int) (*TiledTensor, error) {
	return NewParallel(t, tileDims, order, 0)
}

// NewParallel is New with an explicit worker count (0 = all cores).
// Entries are bucketed by outer tile key in a single group-by pass —
// no global comparison sort over the whole tensor — and each tile's
// inner CSF is built independently on a worker pool. Tiles are merged
// in a deterministic keyed order, so the result is byte-identical for
// every worker count.
func NewParallel(t *tensor.COO, tileDims []int, order []int, workers int) (*TiledTensor, error) {
	return NewCtx(context.Background(), t, tileDims, order, workers)
}

// NewCtx is NewParallel with cooperative cancellation: the parallel
// passes stop claiming work at the next item boundary once ctx is
// cancelled, the serial passes check ctx between phases, and the
// context's error is returned. A never-cancelled ctx yields exactly
// NewParallel's byte-identical result.
func NewCtx(ctx context.Context, t *tensor.COO, tileDims []int, order []int, workers int) (*TiledTensor, error) {
	n := t.Order()
	order, err := validateTiling(t, tileDims, order)
	if err != nil {
		return nil, err
	}

	tt := &TiledTensor{
		Dims:      append([]int(nil), t.Dims...),
		TileDims:  append([]int(nil), tileDims...),
		OuterDims: make([]int, n),
		Order:     append([]int(nil), order...),
		Tiles:     make(map[uint64]*Tile),
		NNZ:       t.NNZ(),
	}
	for a := range tt.OuterDims {
		tt.OuterDims[a] = (t.Dims[a] + tileDims[a] - 1) / tileDims[a]
	}

	gr, err := groupByOuter(ctx, t, tileDims, order, workers)
	if err != nil {
		return nil, err
	}
	inner, groupKeys, starts, entOf := gr.inner, gr.groupKeys, gr.starts, gr.entOf

	innerDims := make([]int, n)
	for l, ax := range order {
		innerDims[l] = tileDims[ax]
	}

	// Pass 4 (parallel per group): sort each group's entries by inner
	// coordinates in level order (a strict total order — the input is
	// duplicate-free) and build its inner CSF. Workers write disjoint
	// slots of the per-group slices; no shared state. Each worker reuses
	// one scratch of column/value buffers across every group it claims
	// (grown once to the largest group, never reallocated per tile), and
	// the Tile structs and their outer-coordinate slices come from two
	// flat backing arrays instead of per-group allocations — all three
	// are retained by the result or reused, so the per-group cost is the
	// inner CSF's exact-sized arrays and nothing else.
	tiles := make([]Tile, len(groupKeys))
	ocBack := make([]int, n*len(groupKeys))
	type tileScratch struct {
		cols [][]int32
		vals []float64
	}
	newScratch := func() *tileScratch { return &tileScratch{cols: make([][]int32, n)} }
	// One comparator shared by every worker (read-only captures): the
	// per-group sort.Slice closure plus its reflection-based swapper were
	// one allocation per tile, visible at micro-tiling granularity.
	cmpInner := func(p, q int) int {
		for l := 0; l < n; l++ {
			if d := inner[l][p] - inner[l][q]; d != 0 {
				return int(d)
			}
		}
		return 0
	}
	err = par.ForEachScratchCtx(ctx, workers, len(groupKeys), newScratch, func(g int, sc *tileScratch) error {
		seg := entOf[starts[g]:starts[g+1]]
		slices.SortFunc(seg, cmpInner)
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
		// Decode the level-order group key back into axis-order coords.
		k := groupKeys[g]
		oc := ocBack[g*n : (g+1)*n : (g+1)*n]
		for l := n - 1; l >= 0; l-- {
			oc[order[l]] = int(k & (1<<keyShift - 1))
			k >>= keyShift
		}
		tiles[g] = Tile{Outer: oc, CSF: csf, Footprint: csf.FootprintWords()}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 5 (serial): keyed merge in group order. The aggregates are an
	// integer sum and maximum, so the totals are independent of group
	// discovery order. Tiles live in one flat array; the map holds
	// pointers into it.
	for g := range tiles {
		tile := &tiles[g]
		tt.Tiles[Key(tile.Outer)] = tile
		tt.TotalFootprint += tile.Footprint
		if tile.Footprint > tt.MaxFootprint {
			tt.MaxFootprint = tile.Footprint
		}
	}

	tt.buildOuterCSF()
	return tt, nil
}

// validateTiling checks the order limit, the tile-dims/order arity, the
// order's permutation property and the coordinate width bounds shared by
// NewCtx and SummarizeCtx, returning the resolved level order (natural
// when nil). The math.MaxInt32 guard here bounds every outer/inner
// conversion downstream of both entry points.
func validateTiling(t *tensor.COO, tileDims, order []int) ([]int, error) {
	n := t.Order()
	if n > MaxOrder {
		return nil, fmt.Errorf("tiling: order-%d tensor exceeds the order-%d limit of %d-bit tile keys", n, MaxOrder, keyShift)
	}
	if len(tileDims) != n {
		return nil, fmt.Errorf("tiling: %d tile dims for order-%d tensor", len(tileDims), n)
	}
	if order == nil {
		order = make([]int, n)
		for a := range order {
			order[a] = a
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("tiling: order arity %d != %d", len(order), n)
	}
	if err := checkPermutation(order); err != nil {
		return nil, err
	}
	for a, td := range tileDims {
		if td < 1 {
			return nil, fmt.Errorf("tiling: tile dim %d on axis %d", td, a)
		}
		if (t.Dims[a]+td-1)/td > 1<<keyShift {
			return nil, fmt.Errorf("tiling: axis %d produces too many tiles", a)
		}
		// Guard the int32 coordinate width up front so the per-entry
		// outer/inner conversions below cannot wrap (coordinates are
		// bounded by the axis dimension).
		if t.Dims[a] > math.MaxInt32 {
			return nil, fmt.Errorf("tiling: axis %d dimension %d exceeds the int32 coordinate width", a, t.Dims[a])
		}
	}
	return order, nil
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

// grouping is the output of the radix group-by passes shared by the full
// tiler and the summary pass: per-entry inner coordinates per level, the
// group keys (packed in level order, first-appearance order), and entry
// indices counting-sorted into per-group contiguous segments of entOf
// (group g owns entOf[starts[g]:starts[g+1]], stable within the group).
type grouping struct {
	inner     [][]int32
	groupKeys []uint64
	starts    []int
	entOf     []int
}

// groupByOuter runs passes 1–3 of the tiler: compute per-entry inner
// coordinates and level-order outer keys in parallel, discover groups
// serially in first-appearance order, and counting-sort entry indices
// into per-group segments. The caller must have validated tileDims/order
// via validateTiling.
func groupByOuter(ctx context.Context, t *tensor.COO, tileDims, order []int, workers int) (*grouping, error) {
	n := t.Order()
	nnz := t.NNZ()

	// Inner coordinates are remainders modulo the tile size, which
	// validateTiling capped at math.MaxInt32 — assert per axis so the
	// int32 narrowing in pass 1 is visibly safe without a per-entry
	// check.
	for _, td := range tileDims {
		if td <= 0 || td > math.MaxInt32 {
			return nil, fmt.Errorf("tiling: tile dim %d out of int32 range", td)
		}
	}

	// Pass 1 (parallel over disjoint entry ranges): per-entry inner
	// coordinates per level and the outer tile key packed in level order.
	// validateTiling bounds every outer coordinate below 2^keyShift and
	// the order at MaxOrder, so the n levels fit one uint64 (Key relies on
	// the same bounds in axis order).
	inner := make([][]int32, n)
	for l := range inner {
		inner[l] = make([]int32, nnz)
	}
	gkeys := make([]uint64, nnz)
	chunks := par.Chunks(workers, nnz)
	if err := par.ForEachCtx(ctx, workers, len(chunks), func(c int) error {
		for p := chunks[c][0]; p < chunks[c][1]; p++ {
			var k uint64
			for l, ax := range order {
				crd := t.Crds[ax][p]
				td := tileDims[ax]
				k = k<<keyShift | uint64(crd/td)
				inner[l][p] = int32(crd % td)
			}
			gkeys[p] = k
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Pass 2 (serial): discover groups in first-appearance order and
	// count entries per group.
	gidOf := make(map[uint64]int, 64)
	groupKeys := make([]uint64, 0, 64)
	counts := make([]int, 0, 64)
	gidPer := make([]int, nnz)
	for p := 0; p < nnz; p++ {
		k := gkeys[p]
		g, ok := gidOf[k]
		if !ok {
			g = len(groupKeys)
			gidOf[k] = g
			groupKeys = append(groupKeys, k)
			counts = append(counts, 0)
		}
		gidPer[p] = g
		counts[g]++
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 3 (serial): counting-sort entry indices into per-group
	// contiguous segments (stable within each group).
	starts := make([]int, len(groupKeys)+1)
	for g, c := range counts {
		starts[g+1] = starts[g] + c
	}
	entOf := make([]int, nnz)
	cursor := append([]int(nil), starts[:len(groupKeys)]...)
	for p := 0; p < nnz; p++ {
		g := gidPer[p]
		entOf[cursor[g]] = p
		cursor[g]++
	}
	return &grouping{inner: inner, groupKeys: groupKeys, starts: starts, entOf: entOf}, nil
}

// TileSummary is the allocation-light alternative to a full tiling: the
// per-tile aggregates the statistics collector's micro summary needs —
// keys, entry counts and CSF footprints — computed without materializing
// an inner CSF per tile. For a tiling at micro granularity this replaces
// tens of thousands of short-lived CSF allocations with three flat
// arrays.
type TileSummary struct {
	OuterDims []int    // micro grid extent per axis
	Keys      []uint64 // axis-order Key() per non-empty tile, ascending
	NNZ       []int32  // stored entries per tile, parallel to Keys
	Footprint []int32  // CSF footprint words per tile, parallel to Keys
	// Fibers[l][i] is the fiber count at CSF level l of tile Keys[i] —
	// exactly FiberCount(l) of the inner CSF NewCtx would build. The
	// statistics merge path sums these per level instead of re-walking
	// tiles, so per-chunk partials reproduce ProbIndex exactly.
	Fibers [][]int32

	TotalFootprint int
}

// Summarize is SummarizeCtx without cancellation.
func Summarize(t *tensor.COO, tileDims, order []int, workers int) (*TileSummary, error) {
	return SummarizeCtx(context.Background(), t, tileDims, order, workers)
}

// SummarizeCtx computes the TileSummary of tiling t by tileDims in level
// order `order` (nil = natural). The per-tile footprints are exactly what
// NewCtx would record (FootprintWords of the per-tile CSF): entries ×
// one value word, plus per level the fiber count (coordinate words) and
// the segment words (parent fibers + 1; 2 at the root). Results are
// byte-identical at any worker count.
func SummarizeCtx(ctx context.Context, t *tensor.COO, tileDims, order []int, workers int) (*TileSummary, error) {
	n := t.Order()
	order, err := validateTiling(t, tileDims, order)
	if err != nil {
		return nil, err
	}
	gr, err := groupByOuter(ctx, t, tileDims, order, workers)
	if err != nil {
		return nil, err
	}
	inner, groupKeys, starts, entOf := gr.inner, gr.groupKeys, gr.starts, gr.entOf

	sum := &TileSummary{
		OuterDims: make([]int, n),
		Keys:      make([]uint64, len(groupKeys)),
		NNZ:       make([]int32, len(groupKeys)),
		Footprint: make([]int32, len(groupKeys)),
		Fibers:    make([][]int32, n),
	}
	fibBack := make([]int32, n*len(groupKeys))
	for l := 0; l < n; l++ {
		sum.Fibers[l] = fibBack[l*len(groupKeys) : (l+1)*len(groupKeys) : (l+1)*len(groupKeys)]
	}
	for a := range sum.OuterDims {
		sum.OuterDims[a] = (t.Dims[a] + tileDims[a] - 1) / tileDims[a]
	}

	cmpInner := func(p, q int) int {
		for l := 0; l < n; l++ {
			if d := inner[l][p] - inner[l][q]; d != 0 {
				return int(d)
			}
		}
		return 0
	}
	// Parallel per group: sort the group's entries by inner coordinates
	// (the same strict total order the CSF build uses) and count fibers
	// per level by divergence — a fiber opens at every entry whose path
	// diverges from its predecessor's at or above that level. Workers
	// write disjoint per-group slots; nothing here allocates.
	if err := par.ForEachCtx(ctx, workers, len(groupKeys), func(g int) error {
		seg := entOf[starts[g]:starts[g+1]]
		slices.SortFunc(seg, cmpInner)
		// Footprint = values + Σ_l coords (fibers[l]) + Σ_l segment words
		// (fibers[l-1]+1 per level, 2 at the root — an n+1 constant plus
		// every non-leaf level's fiber count repeated as its child's
		// segment starts).
		words := len(seg) + n + 1
		var fibArr [8]int
		fib := fibArr[:]
		if n > len(fibArr) {
			fib = make([]int, n)
		}
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
		// Decode the level-order group key into an axis-order Key.
		k := groupKeys[g]
		var ocArr [8]int
		oc := ocArr[:]
		if n > len(ocArr) {
			oc = make([]int, n)
		}
		for l := n - 1; l >= 0; l-- {
			oc[order[l]] = int(k & (1<<keyShift - 1))
			k >>= keyShift
		}
		sum.Keys[g] = Key(oc[:n])
		sum.NNZ[g] = checked.Int32(len(seg))
		sum.Footprint[g] = checked.Int32(words)
		for l := 0; l < n; l++ {
			sum.Fibers[l][g] = checked.Int32(fib[l])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Canonical order: ascending axis-order key (what the stats micro
	// summary serializes); keys are unique so the permutation is total.
	perm := make([]int, len(sum.Keys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool { return sum.Keys[perm[x]] < sum.Keys[perm[y]] })
	keys := make([]uint64, len(perm))
	nnzs := make([]int32, len(perm))
	fps := make([]int32, len(perm))
	fibs := make([][]int32, n)
	fibsBack := make([]int32, n*len(perm))
	for l := 0; l < n; l++ {
		fibs[l] = fibsBack[l*len(perm) : (l+1)*len(perm) : (l+1)*len(perm)]
	}
	for i, pi := range perm {
		keys[i] = sum.Keys[pi]
		nnzs[i] = sum.NNZ[pi]
		fps[i] = sum.Footprint[pi]
		for l := 0; l < n; l++ {
			fibs[l][i] = sum.Fibers[l][pi]
		}
		sum.TotalFootprint += int(fps[i])
	}
	sum.Keys, sum.NNZ, sum.Footprint, sum.Fibers = keys, nnzs, fps, fibs
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
		dec := Unkey(k, len(tt.Dims))
		for a := range dec {
			if dec[a] != tile.Outer[a] {
				return fmt.Errorf("tiling: key %v does not match outer %v", dec, tile.Outer)
			}
			if tile.Outer[a] < 0 || tile.Outer[a] >= tt.OuterDims[a] {
				return fmt.Errorf("tiling: outer coordinate %v out of grid %v", tile.Outer, tt.OuterDims)
			}
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
	for {
		dims := make([]int, order)
		for a := range dims {
			dims[a] = t * 2
		}
		if DenseFootprintWords(dims) > bufferWords {
			return t
		}
		t *= 2
	}
}
