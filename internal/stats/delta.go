package stats

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"d2t2/internal/radix"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// DeltaReport summarizes how much work a delta application localized:
// how many base and micro tiles the delta touched (and were therefore
// re-summarized) out of the totals after the merge. The serve layer
// surfaces these so operators can see the re-collection that was
// avoided.
type DeltaReport struct {
	TouchedTiles int // base tiles re-summarized
	TotalTiles   int // base tiles after the merge
	TouchedMicro int // micro tiles re-summarized
	TotalMicro   int // micro tiles after the merge
}

// ApplyDeltaCtx folds a coordinate delta into an existing partial
// without re-collecting the base tensor: it is Merge of the old partial,
// minus the base and micro tiles the delta touches, with the delta's own
// partial, whose entry-granularity accumulators (histograms, sketches,
// corr multisets) come from a delta-only gather and whose tile tables
// are the touched tiles re-summarized. The result equals
// CollectPartialCtx on the concatenated tensor byte for byte (and so
// does its Finalize), at any worker count.
//
// old must be the Normalized (sorted, duplicate-free) tensor p was
// collected from, and delta must not collide with old's coordinates or
// its own — a collision would sum values under Dedup and invalidate the
// purely additive entry statistics. Intra-delta duplicates are detected
// here; collisions against old are the caller's contract (the Session
// merge-scans the sorted base before calling).
func ApplyDeltaCtx(ctx context.Context, p *Partial, old, delta *tensor.COO, workers int) (*Partial, *DeltaReport, error) {
	n := len(p.Dims)
	if old.Order() != n || delta.Order() != n {
		return nil, nil, fmt.Errorf("stats: delta arity: partial order %d, base %d, delta %d", n, old.Order(), delta.Order())
	}
	for a := 0; a < n; a++ {
		if old.Dims[a] != p.Dims[a] || delta.Dims[a] != p.Dims[a] {
			return nil, nil, fmt.Errorf("stats: delta dims: partial %v, base %v, delta %v", p.Dims, old.Dims, delta.Dims)
		}
	}
	if old.NNZ() != p.NNZ {
		return nil, nil, fmt.Errorf("stats: partial covers %d entries, base tensor has %d", p.NNZ, old.NNZ())
	}
	for a := 0; a < n; a++ {
		for pos := 0; pos < delta.NNZ(); pos++ {
			if c := delta.Crds[a][pos]; c < 0 || c >= p.Dims[a] {
				return nil, nil, fmt.Errorf("stats: delta entry %d: coordinate %d out of range on axis %d", pos, c, a)
			}
		}
	}
	if delta.NNZ() == 0 {
		return p, &DeltaReport{TotalTiles: len(p.TileKeys), TotalMicro: len(p.MicroKeys)}, nil
	}
	dd := delta.Clone()
	dd.Dedup()
	if dd.NNZ() != delta.NNZ() {
		return nil, nil, fmt.Errorf("stats: delta contains %d duplicate coordinates", delta.NNZ()-dd.NNZ())
	}

	// The per-tile tables cannot merge additively — a touched tile's
	// fiber counts and footprint depend on the union of its entries — so
	// the touched tiles are re-summarized from (old entries in those
	// tiles) + delta. Touched base and micro tiles are found separately:
	// micro tiles need not nest in base tiles when TileDims is not a
	// micro multiple.
	sumT, err := touchedSummary(ctx, old, delta, p.TileDims, p.Order, workers)
	if err != nil {
		return nil, nil, err
	}
	sumM, err := touchedSummary(ctx, old, delta, p.MicroDims, p.Order, workers)
	if err != nil {
		return nil, nil, err
	}

	// The delta's own partial carries its entry-granularity accumulators
	// (gathered in the partial's exact frame) and the re-summarized
	// touched tiles; the old partial keeps every untouched tile. The two
	// are tile-disjoint by construction, so Merge — whose shared-key
	// check still guards the result — is the whole fold.
	dp, err := collectPartial(ctx, delta, paramsFromPartial(p), workers, sumT, sumM)
	if err != nil {
		return nil, nil, err
	}
	rest := *p
	rest.TileKeys, rest.TileNNZ, rest.TileFP, rest.TileFibers = dropKeys(p.TileKeys, p.TileNNZ, p.TileFP, p.TileFibers, sumT.Keys)
	rest.MicroKeys, rest.MicroNNZ, rest.MicroFP, _ = dropKeys(p.MicroKeys, p.MicroNNZ, p.MicroFP, nil, sumM.Keys)
	out, err := Merge(&rest, dp)
	if err != nil {
		return nil, nil, err
	}
	return out, &DeltaReport{
		TouchedTiles: len(sumT.Keys),
		TotalTiles:   len(out.TileKeys),
		TouchedMicro: len(sumM.Keys),
		TotalMicro:   len(out.MicroKeys),
	}, nil
}

// touchedSummary re-summarizes, in the tiling by tileDims, the tiles that
// hold a delta entry, from their entries in the concatenated tensor:
// every old entry in such a tile, then the delta. The touched tiles are
// marked in a table over the tile grid when the grid is dense in the
// entries (radix.Dense), else in a set.
func touchedSummary(ctx context.Context, old, delta *tensor.COO, tileDims, order []int, workers int) (*tiling.TileSummary, error) {
	n := old.Order()
	outer := make([]int, n)
	for a := range outer {
		outer[a] = (old.Dims[a] + tileDims[a] - 1) / tileDims[a]
	}
	grid, err := radix.NewCodec(outer)
	if err != nil {
		return nil, fmt.Errorf("stats: delta tile grid: %w", err)
	}
	tk := newTileKeyer(grid, tileDims)
	var table []bool
	var set map[uint64]struct{}
	if radix.Dense(grid.Size(), old.NNZ()+delta.NNZ()) {
		table = make([]bool, grid.Size())
		for pos := 0; pos < delta.NNZ(); pos++ {
			table[tk.key(delta, pos)] = true
		}
	} else {
		set = make(map[uint64]struct{})
		for pos := 0; pos < delta.NNZ(); pos++ {
			set[tk.key(delta, pos)] = struct{}{}
		}
	}
	sub := tensor.New(old.Dims...)
	oc := make([]int, n)
	add := func(t *tensor.COO, pos int) {
		for a, crd := range t.Crds {
			oc[a] = crd[pos]
		}
		sub.Append(oc, t.Vals[pos])
	}
	for pos := 0; pos < old.NNZ(); pos++ {
		k := tk.key(old, pos)
		if table != nil {
			if table[k] {
				add(old, pos)
			}
		} else if _, ok := set[k]; ok {
			add(old, pos)
		}
	}
	// Every delta entry lies in a touched tile.
	for pos := 0; pos < delta.NNZ(); pos++ {
		add(delta, pos)
	}
	return tiling.SummarizeCtx(ctx, sub, tileDims, order, workers)
}

// tileKeyer keys entries by the tile that holds them: its key in the
// tile grid is the sum over axes of the outer coordinate times the
// axis' stride, the outer coordinate split off by a shift where the
// tile dim is a power of two.
type tileKeyer struct {
	tileDims []int
	shift    []int // log2 of the tile dim, or -1
	stride   []uint64
}

func newTileKeyer(grid *radix.Codec, tileDims []int) *tileKeyer {
	tk := &tileKeyer{tileDims: tileDims, shift: make([]int, len(tileDims)), stride: make([]uint64, len(tileDims))}
	for a, td := range tileDims {
		tk.shift[a] = -1
		if td&(td-1) == 0 {
			tk.shift[a] = bits.TrailingZeros(uint(td))
		}
		tk.stride[a] = grid.Stride(a)
	}
	return tk
}

// key returns the tile key of entry pos of t.
func (tk *tileKeyer) key(t *tensor.COO, pos int) uint64 {
	var k uint64
	for a, crd := range t.Crds {
		c := crd[pos]
		if s := tk.shift[a]; s >= 0 {
			c >>= s
		} else {
			c /= tk.tileDims[a]
		}
		k += uint64(c) * tk.stride[a]
	}
	return k
}

// dropKeys returns a key-ascending tile table without the records of the
// ascending touched keys. fibers is nil for micro tables.
func dropKeys(keys []uint64, nnz, fp []int32, fibers [][]int32, touched []uint64) ([]uint64, []int32, []int32, [][]int32) {
	k := make([]uint64, 0, len(keys))
	nz, f := make([]int32, 0, len(keys)), make([]int32, 0, len(keys))
	var fib [][]int32
	if fibers != nil {
		fib = make([][]int32, len(fibers))
		for l := range fib {
			fib[l] = make([]int32, 0, len(keys))
		}
	}
	for i, key := range keys {
		if _, drop := slices.BinarySearch(touched, key); drop {
			continue
		}
		k = append(k, key)
		nz = append(nz, nnz[i])
		f = append(f, fp[i])
		for l := range fib {
			fib[l] = append(fib[l], fibers[l][i])
		}
	}
	return k, nz, f, fib
}
