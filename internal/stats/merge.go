package stats

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"d2t2/internal/par"
	"d2t2/internal/radix"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Partial is the mergeable accumulator form of a statistics collection:
// every reduction the collector performs — entry histograms, bottom-k
// sketch multisets, corr rest-key multisets, per-tile and per-micro-tile
// summary records — kept in its pre-normalization state, before any
// division or averaging. Two partials over entry-disjoint pieces of the
// same tensor Merge into exactly the partial a from-scratch collection
// over the combined entries would produce, and Finalize turns a partial
// into its Stats — the only way a Stats is built from collected counts:
// every final float is a ratio of exactly-merged integers or a
// deterministic replay over identically-sorted data, so the
// Portable/snapshot bytes match a serial collection byte for byte.
//
// The parameter fields (Dims through SkipExtensions) pin the collection
// frame; Merge refuses partials whose frames differ. The table fields
// are keyed by tile; Merge requires the key sets disjoint — partition
// entries along tile boundaries (for both the base and the micro grid)
// or use ApplyDelta, which re-summarizes the straddled tiles.
type Partial struct {
	Dims     []int // original dimension sizes
	TileDims []int // conservative base tiling the stats frame uses
	Order    []int // CSF level order (axis per level)
	// MicroDims is the resolved micro tile size per axis
	// (max(1, TileDims/MicroDiv)).
	MicroDims []int

	// CorrAxes lists the axes Corrs is collected for; CorrMaxShift holds
	// the resolved shift bound per listed axis (parallel slices).
	CorrAxes     []int
	CorrMaxShift []int

	CorrSampleTarget int
	TileCorrMaxShift int
	SkipExtensions   bool

	NNZ int

	// Entry-granularity accumulators: ElemCounts[a][v] sums elementwise;
	// Sketches[a] is the sorted k-smallest hash multiset (duplicates
	// retained — see bottomK.multiset); CorrOff[i]/CorrRest[i] hold the
	// per-position sorted rest-key multisets of corr axis CorrAxes[i]
	// (CorrOff[i][k]..CorrOff[i][k+1] bounds position k's keys).
	ElemCounts [][]int32
	Sketches   [][]uint64
	CorrOff    [][]int32
	CorrRest   [][]uint64

	// Per-tile records at the base tiling, keys ascending:
	// TileFibers[l][i] is the CSF level-l fiber count of tile TileKeys[i].
	TileKeys   []uint64
	TileNNZ    []int32
	TileFP     []int32
	TileFibers [][]int32

	// Per-tile records at the micro tiling, keys ascending.
	MicroKeys []uint64
	MicroNNZ  []int32
	MicroFP   []int32
}

// partialParams is the resolved collection frame: what CollectPartialCtx
// derives from Options and what ApplyDelta reads back from an existing
// Partial so the delta-only gather runs in the identical frame.
type partialParams struct {
	dims, tileDims, order, microDims []int
	corrAxes, corrMaxShift           []int
	corrSampleTarget                 int
	tileCorrMaxShift                 int
	skipExtensions                   bool
}

func paramsFromPartial(p *Partial) *partialParams {
	return &partialParams{
		dims:             p.Dims,
		tileDims:         p.TileDims,
		order:            p.Order,
		microDims:        p.MicroDims,
		corrAxes:         p.CorrAxes,
		corrMaxShift:     p.CorrMaxShift,
		corrSampleTarget: p.CorrSampleTarget,
		tileCorrMaxShift: p.TileCorrMaxShift,
		skipExtensions:   p.SkipExtensions,
	}
}

// CollectPartial is CollectPartialCtx with a background context.
func CollectPartial(t *tensor.COO, baseTileDims, order []int, opts *Options) (*Partial, error) {
	return CollectPartialCtx(context.Background(), t, baseTileDims, order, opts)
}

// CollectPartialCtx collects the mergeable accumulator form of the
// statistics for t at the given conservative tiling, under the same
// options Collect takes. Finalize on the result is CollectCtx's Stats
// (Portable/snapshot bytes equal) at any worker count; partials over
// entry-disjoint chunks of a tensor Merge into the partial of the whole.
// An empty tensor yields the monoid identity for its frame.
func CollectPartialCtx(ctx context.Context, t *tensor.COO, baseTileDims, order []int, opts *Options) (*Partial, error) {
	o := opts.withDefaults()
	prm, err := o.frame(t, baseTileDims, order)
	if err != nil {
		return nil, err
	}
	return collectPartial(ctx, t, prm, o.Workers, nil, nil)
}

// frame resolves the options into the collection frame of t at the
// given base tiling (level order nil = natural).
func (o *Options) frame(t *tensor.COO, baseTileDims, order []int) (*partialParams, error) {
	n := t.Order()
	if len(baseTileDims) != n {
		return nil, fmt.Errorf("stats: %d tile dims for order-%d tensor", len(baseTileDims), n)
	}
	if order == nil {
		order = make([]int, n)
		for a := range order {
			order[a] = a
		}
	}
	microDims := make([]int, n)
	for a, td := range baseTileDims {
		microDims[a] = td / o.MicroDiv
		if microDims[a] < 1 {
			microDims[a] = 1
		}
	}
	axes, err := o.corrAxes(n)
	if err != nil {
		return nil, err
	}
	maxShifts := make([]int, len(axes))
	for i, ax := range axes {
		maxShifts[i] = o.CorrMaxShift
		if maxShifts[i] == 0 {
			maxShifts[i] = 2 * baseTileDims[ax]
		}
	}
	return &partialParams{
		dims:             append([]int(nil), t.Dims...),
		tileDims:         append([]int(nil), baseTileDims...),
		order:            append([]int(nil), order...),
		microDims:        microDims,
		corrAxes:         append([]int(nil), axes...),
		corrMaxShift:     maxShifts,
		corrSampleTarget: o.CorrSampleTarget,
		tileCorrMaxShift: o.TileCorrMaxShift,
		skipExtensions:   o.SkipExtensions,
	}, nil
}

// collectPartial runs the accumulator-form collection in a fully
// resolved frame. The base-tile table is base when the caller already
// has it (see tiledSummary), else the summary-only tiler's; the micro
// table is micro when given, else the base table itself when the micro
// tile equals the base tile.
func collectPartial(ctx context.Context, t *tensor.COO, prm *partialParams, workers int, base, micro *tiling.TileSummary) (*Partial, error) {
	n := len(prm.dims)
	var err error
	tsum := base
	if tsum == nil {
		if tsum, err = tiling.SummarizeCtx(ctx, t, prm.tileDims, prm.order, workers); err != nil {
			return nil, err
		}
	}
	msum := micro
	if msum == nil {
		msum = tsum
		if !slices.Equal(prm.microDims, prm.tileDims) {
			if msum, err = tiling.SummarizeCtx(ctx, t, prm.microDims, prm.order, workers); err != nil {
				return nil, err
			}
		}
	}

	p := &Partial{
		Dims:             prm.dims,
		TileDims:         prm.tileDims,
		Order:            prm.order,
		MicroDims:        prm.microDims,
		CorrAxes:         prm.corrAxes,
		CorrMaxShift:     prm.corrMaxShift,
		CorrSampleTarget: prm.corrSampleTarget,
		TileCorrMaxShift: prm.tileCorrMaxShift,
		SkipExtensions:   prm.skipExtensions,
		NNZ:              t.NNZ(),
		TileKeys:         tsum.Keys,
		TileNNZ:          tsum.NNZ,
		TileFP:           tsum.Footprint,
		TileFibers:       tsum.Fibers,
		MicroKeys:        msum.Keys,
		MicroNNZ:         msum.NNZ,
		MicroFP:          msum.Footprint,
	}

	if !prm.skipExtensions {
		outerDims := make([]int, n)
		for a := range outerDims {
			outerDims[a] = (prm.dims[a] + prm.tileDims[a] - 1) / prm.tileDims[a]
		}
		pairRadix, pairNarrow := pairKeyRadixes(prm.dims, outerDims)
		entryChunks := par.Chunks(workers, t.NNZ())
		type entryAgg struct {
			counts   [][]int32
			sketches []*bottomK
		}
		var emu sync.Mutex
		var eaggs []*entryAgg
		newEntryAgg := func() *entryAgg {
			ea := &entryAgg{counts: make([][]int32, n), sketches: make([]*bottomK, n)}
			for a := 0; a < n; a++ {
				ea.counts[a] = make([]int32, prm.dims[a])
				ea.sketches[a] = newBottomK(sketchSize)
			}
			emu.Lock()
			eaggs = append(eaggs, ea)
			emu.Unlock()
			return ea
		}
		if err := par.ForEachScratchCtx(ctx, workers, len(entryChunks), newEntryAgg, func(c int, ea *entryAgg) error {
			for pos := entryChunks[c][0]; pos < entryChunks[c][1]; pos++ {
				for a := 0; a < n; a++ {
					ea.counts[a][t.Crds[a][pos]]++
					// Pair key: axis coordinate × coarse bucket of the rest.
					var rest uint64
					for b, r := range pairRadix[a] {
						if b != a {
							rest = rest*r + uint64(t.Crds[b][pos]/prm.tileDims[b])
						}
					}
					ea.sketches[a].add(pairHash(uint64(t.Crds[a][pos]), rest, pairNarrow[a]))
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		p.ElemCounts = make([][]int32, n)
		sketches := make([]*bottomK, n)
		for a := 0; a < n; a++ {
			p.ElemCounts[a] = make([]int32, prm.dims[a])
			sketches[a] = newBottomK(sketchSize)
		}
		for _, ea := range eaggs {
			for a := 0; a < n; a++ {
				for v, c := range ea.counts[a] {
					p.ElemCounts[a][v] += c
				}
				sketches[a].merge(ea.sketches[a])
			}
		}
		p.Sketches = make([][]uint64, n)
		for a := 0; a < n; a++ {
			p.Sketches[a] = sketches[a].multiset()
		}
	}

	type corrAcc struct {
		off  []int32
		flat []uint64
	}
	accs, err := par.MapCtx(ctx, workers, len(prm.corrAxes), func(i int) (corrAcc, error) {
		ax := prm.corrAxes[i]
		rest, err := corrRestGrid(prm.dims, ax)
		if err != nil {
			return corrAcc{}, err
		}
		pl := newCorrPlan(prm.dims[ax], prm.corrMaxShift[i], prm.corrSampleTarget)
		off, flat := pl.gather(t, ax, rest)
		return corrAcc{off, flat}, nil
	})
	if err != nil {
		return nil, err
	}
	p.CorrOff = make([][]int32, len(accs))
	p.CorrRest = make([][]uint64, len(accs))
	for i, acc := range accs {
		p.CorrOff[i] = acc.off
		p.CorrRest[i] = acc.flat
	}
	return p, nil
}

// frameEqual reports whether two partials share the same collection
// frame: only then are their accumulators about the same statistic.
func (p *Partial) frameEqual(q *Partial) error {
	switch {
	case !slices.Equal(p.Dims, q.Dims):
		return fmt.Errorf("stats: merge frame mismatch: dims %v vs %v", p.Dims, q.Dims)
	case !slices.Equal(p.TileDims, q.TileDims):
		return fmt.Errorf("stats: merge frame mismatch: tile dims %v vs %v", p.TileDims, q.TileDims)
	case !slices.Equal(p.Order, q.Order):
		return fmt.Errorf("stats: merge frame mismatch: order %v vs %v", p.Order, q.Order)
	case !slices.Equal(p.MicroDims, q.MicroDims):
		return fmt.Errorf("stats: merge frame mismatch: micro dims %v vs %v", p.MicroDims, q.MicroDims)
	case !slices.Equal(p.CorrAxes, q.CorrAxes):
		return fmt.Errorf("stats: merge frame mismatch: corr axes %v vs %v", p.CorrAxes, q.CorrAxes)
	case !slices.Equal(p.CorrMaxShift, q.CorrMaxShift):
		return fmt.Errorf("stats: merge frame mismatch: corr shifts %v vs %v", p.CorrMaxShift, q.CorrMaxShift)
	case p.CorrSampleTarget != q.CorrSampleTarget:
		return fmt.Errorf("stats: merge frame mismatch: corr sample target %d vs %d", p.CorrSampleTarget, q.CorrSampleTarget)
	case p.TileCorrMaxShift != q.TileCorrMaxShift:
		return fmt.Errorf("stats: merge frame mismatch: tile corr shift %d vs %d", p.TileCorrMaxShift, q.TileCorrMaxShift)
	case p.SkipExtensions != q.SkipExtensions:
		return fmt.Errorf("stats: merge frame mismatch: skip extensions %v vs %v", p.SkipExtensions, q.SkipExtensions)
	}
	return nil
}

// Merge combines two partials over entry-disjoint pieces of one tensor
// into the partial of the combined entries: integer tables sum, sketch
// and corr multisets merge sorted, tile tables union. It is functional
// (neither input is mutated) and a commutative, associative monoid whose
// identity is the empty tensor's partial for the same frame. Both tile
// key sets (base and micro) must be disjoint — a tile with entries in
// both partials cannot be reconstructed from summaries alone; use
// ApplyDelta for that case.
func Merge(a, b *Partial) (*Partial, error) {
	if err := a.frameEqual(b); err != nil {
		return nil, err
	}
	n := len(a.Dims)
	out := &Partial{
		Dims:             a.Dims,
		TileDims:         a.TileDims,
		Order:            a.Order,
		MicroDims:        a.MicroDims,
		CorrAxes:         a.CorrAxes,
		CorrMaxShift:     a.CorrMaxShift,
		CorrSampleTarget: a.CorrSampleTarget,
		TileCorrMaxShift: a.TileCorrMaxShift,
		SkipExtensions:   a.SkipExtensions,
		NNZ:              a.NNZ + b.NNZ,
	}

	var err error
	out.TileKeys, out.TileNNZ, out.TileFP, out.TileFibers, err =
		mergeTables(a.TileKeys, a.TileNNZ, a.TileFP, a.TileFibers, b.TileKeys, b.TileNNZ, b.TileFP, b.TileFibers)
	if err != nil {
		return nil, fmt.Errorf("stats: merge base tables: %w", err)
	}
	out.MicroKeys, out.MicroNNZ, out.MicroFP, _, err =
		mergeTables(a.MicroKeys, a.MicroNNZ, a.MicroFP, nil, b.MicroKeys, b.MicroNNZ, b.MicroFP, nil)
	if err != nil {
		return nil, fmt.Errorf("stats: merge micro tables: %w", err)
	}

	if !a.SkipExtensions {
		out.ElemCounts = make([][]int32, n)
		out.Sketches = make([][]uint64, n)
		for ax := 0; ax < n; ax++ {
			cnt := make([]int32, len(a.ElemCounts[ax]))
			copy(cnt, a.ElemCounts[ax])
			for v, c := range b.ElemCounts[ax] {
				cnt[v] += c
			}
			out.ElemCounts[ax] = cnt
			out.Sketches[ax] = mergeSortedBounded(a.Sketches[ax], b.Sketches[ax], sketchSize)
		}
	}

	out.CorrOff = make([][]int32, len(a.CorrAxes))
	out.CorrRest = make([][]uint64, len(a.CorrAxes))
	for i := range a.CorrAxes {
		out.CorrOff[i], out.CorrRest[i] = mergeCorrAccum(a.CorrOff[i], a.CorrRest[i], b.CorrOff[i], b.CorrRest[i])
	}
	return out, nil
}

// mergeTables unions two key-ascending tile tables, erroring on a key
// present in both. fibers may be nil on both sides (micro tables).
func mergeTables(ka []uint64, na, fa []int32, fba [][]int32, kb []uint64, nb, fb []int32, fbb [][]int32) ([]uint64, []int32, []int32, [][]int32, error) {
	total := len(ka) + len(kb)
	keys := make([]uint64, 0, total)
	nnz := make([]int32, 0, total)
	fp := make([]int32, 0, total)
	var fib [][]int32
	if fba != nil {
		fib = make([][]int32, len(fba))
		back := make([]int32, len(fba)*total)
		for l := range fib {
			fib[l] = back[l*total : l*total : (l+1)*total]
		}
	}
	take := func(k []uint64, nz, f []int32, fbs [][]int32, i int) {
		keys = append(keys, k[i])
		nnz = append(nnz, nz[i])
		fp = append(fp, f[i])
		for l := range fib {
			fib[l] = append(fib[l], fbs[l][i])
		}
	}
	i, j := 0, 0
	for i < len(ka) && j < len(kb) {
		switch {
		case ka[i] < kb[j]:
			take(ka, na, fa, fba, i)
			i++
		case ka[i] > kb[j]:
			take(kb, nb, fb, fbb, j)
			j++
		default:
			return nil, nil, nil, nil, fmt.Errorf("tile key %#x present in both partials (split tile — partition on tile boundaries or use ApplyDelta)", ka[i])
		}
	}
	for ; i < len(ka); i++ {
		take(ka, na, fa, fba, i)
	}
	for ; j < len(kb); j++ {
		take(kb, nb, fb, fbb, j)
	}
	return keys, nnz, fp, fib, nil
}

// mergeSortedBounded merges two sorted multisets keeping the k smallest
// values (duplicates retained) — the bottom-k sketch merge in multiset
// form.
func mergeSortedBounded(a, b []uint64, k int) []uint64 {
	m := len(a) + len(b)
	if m > k {
		m = k
	}
	out := make([]uint64, 0, m)
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// mergeCorrAccum merges two per-position sorted rest-key multisets.
func mergeCorrAccum(offA []int32, flatA []uint64, offB []int32, flatB []uint64) ([]int32, []uint64) {
	dim := len(offA) - 1
	off := make([]int32, dim+1)
	flat := make([]uint64, len(flatA)+len(flatB))
	w := int32(0)
	for k := 0; k < dim; k++ {
		la := flatA[offA[k]:offA[k+1]]
		lb := flatB[offB[k]:offB[k+1]]
		i, j := 0, 0
		for i < len(la) || j < len(lb) {
			if j >= len(lb) || (i < len(la) && la[i] <= lb[j]) {
				flat[w] = la[i]
				i++
			} else {
				flat[w] = lb[j]
				j++
			}
			w++
		}
		off[k+1] = w
	}
	return off, flat
}

// Validate checks the cross-field invariants every consumer of a Partial
// assumes — arities, key ordering and range, offset monotonicity,
// entry-count conservation, the per-axis tile cap and the tile-corr shift
// cap — so a decoded artifact is safe to Merge and Finalize in bounded
// time.
func (p *Partial) Validate() error {
	n := len(p.Dims)
	if n == 0 {
		return fmt.Errorf("stats: partial has no dimensions")
	}
	if len(p.TileDims) != n || len(p.Order) != n || len(p.MicroDims) != n {
		return fmt.Errorf("stats: partial arity mismatch: %d dims, %d tile dims, %d order, %d micro dims",
			n, len(p.TileDims), len(p.Order), len(p.MicroDims))
	}
	seen := make([]bool, n)
	for _, a := range p.Order {
		if a < 0 || a >= n || seen[a] {
			return fmt.Errorf("stats: partial order %v is not a permutation of 0..%d", p.Order, n-1)
		}
		seen[a] = true
	}
	baseGrid, microGrid := make([]int, n), make([]int, n)
	for a := 0; a < n; a++ {
		d, td, md := p.Dims[a], p.TileDims[a], p.MicroDims[a]
		// The tiler's bounds: int32 coordinates and tile sizes, and at
		// most MaxAxisTiles tiles per axis (Finalize's occupancy and
		// tileCorrs are sized by the grid, which no data backs).
		if d < 0 || d > math.MaxInt32 || td < 1 || td > math.MaxInt32 || md < 1 || md > math.MaxInt32 {
			return fmt.Errorf("stats: partial axis %d: dim %d, tile %d, micro %d", a, d, td, md)
		}
		baseGrid[a], microGrid[a] = (d+td-1)/td, (d+md-1)/md
		if g := max(baseGrid[a], microGrid[a]); g > tiling.MaxAxisTiles {
			return fmt.Errorf("stats: partial axis %d: %d-tile grid past the %d-tile axis cap", a, g, tiling.MaxAxisTiles)
		}
	}
	// Finalize and EvalShape index grid-sized tables by decoded keys, so
	// both grids must have keys.
	base, err := radix.NewCodec(baseGrid)
	if err != nil {
		return fmt.Errorf("stats: partial base grid: %w", err)
	}
	micro, err := radix.NewCodec(microGrid)
	if err != nil {
		return fmt.Errorf("stats: partial micro grid: %w", err)
	}
	if p.TileCorrMaxShift < 0 || p.TileCorrMaxShift > maxTileCorrShift {
		return fmt.Errorf("stats: partial tile corr shift %d outside [0, %d]", p.TileCorrMaxShift, maxTileCorrShift)
	}
	if len(p.CorrMaxShift) != len(p.CorrAxes) || len(p.CorrOff) != len(p.CorrAxes) || len(p.CorrRest) != len(p.CorrAxes) {
		return fmt.Errorf("stats: partial corr tables: %d axes, %d shifts, %d offsets, %d rests",
			len(p.CorrAxes), len(p.CorrMaxShift), len(p.CorrOff), len(p.CorrRest))
	}
	for i, ax := range p.CorrAxes {
		if ax < 0 || ax >= n {
			return fmt.Errorf("stats: partial corr axis %d out of range", ax)
		}
		rest, err := corrRestGrid(p.Dims, ax)
		if err != nil {
			return err
		}
		if len(p.CorrOff[i]) != p.Dims[ax]+1 {
			return fmt.Errorf("stats: partial corr axis %d: %d offsets for dim %d", ax, len(p.CorrOff[i]), p.Dims[ax])
		}
		if off := p.CorrOff[i]; len(off) > 0 {
			if off[0] != 0 || int(off[len(off)-1]) != len(p.CorrRest[i]) {
				return fmt.Errorf("stats: partial corr axis %d: offsets span [%d,%d] over %d keys",
					ax, off[0], off[len(off)-1], len(p.CorrRest[i]))
			}
			for k := 1; k < len(off); k++ {
				if off[k] < off[k-1] {
					return fmt.Errorf("stats: partial corr axis %d: offsets decrease at %d", ax, k)
				}
			}
			// Merge's sorted union and the canonical encoding assume
			// ascending rest keys, each a key of the rest grid.
			for k := 0; k+1 < len(off); k++ {
				keys := p.CorrRest[i][off[k]:off[k+1]]
				if !slices.IsSorted(keys) {
					return fmt.Errorf("stats: partial corr axis %d: rest keys at position %d are not sorted", ax, k)
				}
				if len(keys) > 0 && keys[len(keys)-1] >= rest.Size() {
					return fmt.Errorf("stats: partial corr axis %d: rest key %d at position %d out of range", ax, keys[len(keys)-1], k)
				}
			}
		}
	}
	if p.SkipExtensions {
		if p.ElemCounts != nil || p.Sketches != nil {
			return fmt.Errorf("stats: partial carries extension tables despite SkipExtensions")
		}
	} else {
		if len(p.ElemCounts) != n || len(p.Sketches) != n {
			return fmt.Errorf("stats: partial extension tables: %d counts, %d sketches for order %d",
				len(p.ElemCounts), len(p.Sketches), n)
		}
		for a := 0; a < n; a++ {
			if len(p.ElemCounts[a]) != p.Dims[a] {
				return fmt.Errorf("stats: partial elem counts axis %d: %d for dim %d", a, len(p.ElemCounts[a]), p.Dims[a])
			}
			if len(p.Sketches[a]) > sketchSize {
				return fmt.Errorf("stats: partial sketch axis %d holds %d > %d hashes", a, len(p.Sketches[a]), sketchSize)
			}
			if !slices.IsSorted(p.Sketches[a]) {
				return fmt.Errorf("stats: partial sketch axis %d is not sorted", a)
			}
		}
	}
	checkTable := func(what string, grid *radix.Codec, keys []uint64, nnz, fp []int32, fibers [][]int32) error {
		if len(nnz) != len(keys) || len(fp) != len(keys) {
			return fmt.Errorf("stats: partial %s table: %d keys, %d nnz, %d footprints", what, len(keys), len(nnz), len(fp))
		}
		total := 0
		for i, k := range keys {
			if i > 0 && keys[i-1] >= k {
				return fmt.Errorf("stats: partial %s keys not strictly ascending at %d", what, i)
			}
			if k >= grid.Size() {
				return fmt.Errorf("stats: partial %s tile key %d outside the %d-tile grid", what, k, grid.Size())
			}
			if nnz[i] < 1 || fp[i] < 1 {
				return fmt.Errorf("stats: partial %s tile %#x: nnz %d, footprint %d", what, k, nnz[i], fp[i])
			}
			total += int(nnz[i])
		}
		if total != p.NNZ {
			return fmt.Errorf("stats: partial %s table covers %d entries, NNZ says %d", what, total, p.NNZ)
		}
		if fibers != nil {
			if len(fibers) != n {
				return fmt.Errorf("stats: partial %s fibers: %d levels for order %d", what, len(fibers), n)
			}
			for l := range fibers {
				if len(fibers[l]) != len(keys) {
					return fmt.Errorf("stats: partial %s fibers level %d: %d for %d tiles", what, l, len(fibers[l]), len(keys))
				}
			}
		}
		return nil
	}
	if err := checkTable("base", base, p.TileKeys, p.TileNNZ, p.TileFP, p.TileFibers); err != nil {
		return err
	}
	return checkTable("micro", micro, p.MicroKeys, p.MicroNNZ, p.MicroFP, nil)
}

// Finalize validates the accumulators and normalizes them into the
// Stats bundle: occupancy probabilities and fiber densities as ratios of
// the merged integer tables, sketches deduplicated into their set form,
// corr curves replayed over the merged multisets by the same plan the
// gathers used. The per-axis corr replays run concurrently, each into
// its own slot, so the bundle does not depend on the schedule.
func (p *Partial) Finalize() (*Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.finalize(0)
}

// finalize is Finalize without the validation, for a partial this
// package has just collected; workers bounds the corr replay fan-out
// (0 = all cores).
func (p *Partial) finalize(workers int) (*Stats, error) {
	n := len(p.Dims)
	outerDims := make([]int, n)
	for a := range outerDims {
		outerDims[a] = (p.Dims[a] + p.TileDims[a] - 1) / p.TileDims[a]
	}
	s := &Stats{
		Dims:         append([]int(nil), p.Dims...),
		BaseTileDims: append([]int(nil), p.TileDims...),
		Order:        append([]int(nil), p.Order...),
		NNZ:          p.NNZ,
		NumTiles:     len(p.TileKeys),
		Corrs:        make(map[int][]float64),
	}

	totalFP := 0
	for _, fp := range p.TileFP {
		totalFP += int(fp)
		if int(fp) > s.MaxTile {
			s.MaxTile = int(fp)
		}
	}
	if s.NumTiles > 0 {
		s.SizeTile = float64(totalFP) / float64(s.NumTiles)
	}

	// PrTileIdx: the outer CSF's level-l fiber count is the number of
	// distinct level-order coordinate prefixes of length l+1 — countable
	// from the sorted level-order keys of the tiles without building the
	// CSF. Validate (or the collector) has checked that the grid has keys.
	base, _ := radix.NewCodec(outerDims)
	outerFibers := prefixCounts(base, p.Order, p.TileKeys)
	s.PrTileIdx = make([]float64, n)
	for l := 0; l < n; l++ {
		dim := outerDims[p.Order[l]]
		parents := 1
		if l > 0 {
			parents = outerFibers[l-1]
		}
		if parents == 0 || dim == 0 {
			s.PrTileIdx[l] = 0
			continue
		}
		s.PrTileIdx[l] = float64(outerFibers[l]) / (float64(parents) * float64(dim))
	}

	// ProbIndex: level-conditional fiber densities from the summed
	// per-tile fiber counts.
	fiberTotals := make([]int, n)
	for l := 0; l < n; l++ {
		for _, f := range p.TileFibers[l] {
			fiberTotals[l] += int(f)
		}
	}
	s.ProbIndex = make([]float64, n)
	for l := 0; l < n; l++ {
		parents := len(p.TileKeys)
		if l > 0 {
			parents = fiberTotals[l-1]
		}
		if parents == 0 {
			s.ProbIndex[l] = 0
			continue
		}
		s.ProbIndex[l] = float64(fiberTotals[l]) / (float64(parents) * float64(p.TileDims[p.Order[l]]))
	}

	// Outer-slice occupancy and its shift correlations.
	s.occupancy = make([][]bool, n)
	for ax := 0; ax < n; ax++ {
		s.occupancy[ax] = make([]bool, outerDims[ax])
	}
	oc := make([]int, n)
	for _, k := range p.TileKeys {
		base.Decode(oc, k)
		for ax, c := range oc {
			s.occupancy[ax][c] = true
		}
	}
	s.TileCorrs = make([][]float64, n)
	for ax := 0; ax < n; ax++ {
		s.TileCorrs[ax] = tileCorrs(s.occupancy[ax], p.TileCorrMaxShift)
	}

	if !p.SkipExtensions {
		s.ElemCounts = p.ElemCounts
		s.PairSketch = make([][]uint64, n)
		for ax := 0; ax < n; ax++ {
			s.PairSketch[ax] = dedupSorted(append([]uint64(nil), p.Sketches[ax]...))
		}
	}

	corrs, err := par.Map(workers, len(p.CorrAxes), func(i int) ([]float64, error) {
		pl := newCorrPlan(p.Dims[p.CorrAxes[i]], p.CorrMaxShift[i], p.CorrSampleTarget)
		return pl.finalize(p.CorrOff[i], p.CorrRest[i]), nil
	})
	if err != nil {
		return nil, err
	}
	for i, ax := range p.CorrAxes {
		s.Corrs[ax] = corrs[i]
	}

	microFP := 0
	for _, fp := range p.MicroFP {
		microFP += int(fp)
	}
	microOuter := make([]int, n)
	for a := range microOuter {
		microOuter[a] = (p.Dims[a] + p.MicroDims[a] - 1) / p.MicroDims[a]
	}
	fpScale := 1.0
	if microFP > 0 && totalFP > 0 {
		fpScale = float64(totalFP) / float64(microFP)
	}
	s.micro = &microSummary{
		dims:      s.Dims,
		microDims: append([]int(nil), p.MicroDims...),
		outerDims: microOuter,
		keys:      p.MicroKeys,
		nnz:       p.MicroNNZ,
		footprint: p.MicroFP,
		fpScale:   fpScale,
	}
	return s, nil
}

// pairKeyRadixes returns, per axis a, the radixes that pack the
// base-tile buckets of the other axes into axis a's pair-sketch rest key
// (radix[a][a] is unused), and whether axis a keeps the narrow key.
//
// The narrow key, coordinate<<26 ^ rest with radix outerDims[b]+1, is
// the original one: it is kept wherever it is exact — the radixes'
// product at most 2^26 and the coordinate below 2^38 — so the sketches
// of every matrix (its tile grid is at most 2^21 per axis) and of every
// narrow tensor are unchanged. Elsewhere rest is the exact row-major key
// of the rest grid (radix outerDims[b]; the tile grid has 64-bit keys,
// so its rest grid does too), and pairHash mixes the two words.
func pairKeyRadixes(dims, outerDims []int) (radix [][]uint64, narrow []bool) {
	n := len(dims)
	radix = make([][]uint64, n)
	narrow = make([]bool, n)
	for a := range radix {
		size, fits := uint64(1), uint64(dims[a]) < 1<<38
		for b := 0; b < n && fits; b++ {
			if b != a {
				var hi uint64
				hi, size = bits.Mul64(size, uint64(outerDims[b]+1))
				fits = hi == 0 && size <= 1<<26
			}
		}
		narrow[a] = fits
		radix[a] = make([]uint64, n)
		for b := range radix[a] {
			if b != a {
				radix[a][b] = uint64(outerDims[b])
				if fits {
					radix[a][b]++
				}
			}
		}
	}
	return radix, narrow
}

// pairHash is the pair-sketch hash of (coordinate, rest key): the
// original coordinate<<26 ^ rest for a narrow key, a two-word mix
// otherwise. Either way distinct pairs feed distinct inputs to the
// final hash64 except by chance: hash64 is a bijection, so pairs with
// one coordinate never meet, and pairs with two meet only where their
// rest keys differ by the xor of two coordinate hashes.
func pairHash(coord, rest uint64, narrow bool) uint64 {
	if narrow {
		return hash64(coord<<26 ^ rest)
	}
	return hash64(hash64(coord) ^ rest)
}
