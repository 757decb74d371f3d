package stats

// The direct statistics reducer, kept as the test oracle for the
// accumulator path. It computes every statistic straight from a
// materialized conservative tiling — PrTileIdx from the outer CSF,
// ProbIndex from each tile's CSF, the micro table from the tile map at
// MicroDiv 1 — so it shares none of Partial.Finalize's normalization.
// The equivalence tests require the two to agree byte for byte on the
// snapshot wire.

import (
	"context"
	"sort"
	"sync"

	"d2t2/internal/checked"
	"d2t2/internal/par"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// collectDirect reduces t's statistics directly from its conservative
// tiling tt.
func collectDirect(ctx context.Context, t *tensor.COO, tt *tiling.TiledTensor, opts *Options) (*Stats, error) {
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

// corrsAxis computes the paper's Corrs statistic (Eq. 11) generalized to
// arbitrary-order tensors, as one plan → gather → finalize composition.
//
// The paper averages within sampled tiles; we compute against the full
// coordinate range with sampled source positions, which measures the same
// reduction potential (overlaps produce output reuse wherever they fall)
// while bounding cost by one sort of the gathered entries plus the rest
// keys the sampled positions share within maxShift.
func corrsAxis(t *tensor.COO, axis, maxShift, sampleTarget int) []float64 {
	pl := newCorrPlan(t.Dims[axis], maxShift, sampleTarget)
	off, flat := pl.gather(t, axis)
	return pl.finalize(off, flat)
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

// values returns the sketch contents sorted ascending (duplicates
// removed: the pair sets the sketch summarizes are sets).
func (b *bottomK) values() []uint64 {
	return dedupSorted(b.multiset())
}
