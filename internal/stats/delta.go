package stats

import (
	"context"
	"fmt"

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

// ApplyDelta is ApplyDeltaCtx with a background context.
func ApplyDelta(p *Partial, old, delta *tensor.COO, workers int) (*Partial, *DeltaReport, error) {
	return ApplyDeltaCtx(context.Background(), p, old, delta, workers)
}

// ApplyDeltaCtx folds a coordinate delta into an existing partial
// without re-collecting the base tensor: entry-granularity accumulators
// (histograms, sketches, corr multisets) merge additively from a
// delta-only gather, while the per-tile tables are re-summarized only
// for the base and micro tiles the delta touches and spliced over the
// old records. The result equals CollectPartialCtx on the concatenated
// tensor byte for byte (and so does its Finalize), at any worker count.
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

	// Entry-granularity accumulators are append-only: gather the delta
	// alone in the partial's exact frame and merge additively.
	dp, err := collectPartial(ctx, delta, paramsFromPartial(p), workers, nil)
	if err != nil {
		return nil, nil, err
	}

	out := &Partial{
		Dims:             p.Dims,
		TileDims:         p.TileDims,
		Order:            p.Order,
		MicroDims:        p.MicroDims,
		CorrAxes:         p.CorrAxes,
		CorrMaxShift:     p.CorrMaxShift,
		CorrSampleTarget: p.CorrSampleTarget,
		TileCorrMaxShift: p.TileCorrMaxShift,
		SkipExtensions:   p.SkipExtensions,
		NNZ:              p.NNZ + delta.NNZ(),
	}
	if !p.SkipExtensions {
		out.ElemCounts = make([][]int32, n)
		out.Sketches = make([][]uint64, n)
		for ax := 0; ax < n; ax++ {
			cnt := make([]int32, len(p.ElemCounts[ax]))
			copy(cnt, p.ElemCounts[ax])
			for v, c := range dp.ElemCounts[ax] {
				cnt[v] += c
			}
			out.ElemCounts[ax] = cnt
			out.Sketches[ax] = mergeSortedBounded(p.Sketches[ax], dp.Sketches[ax], sketchSize)
		}
	}
	out.CorrOff = make([][]int32, len(p.CorrAxes))
	out.CorrRest = make([][]uint64, len(p.CorrAxes))
	for i := range p.CorrAxes {
		out.CorrOff[i], out.CorrRest[i] = mergeCorrAccum(p.CorrOff[i], p.CorrRest[i], dp.CorrOff[i], dp.CorrRest[i])
	}

	// Per-tile tables cannot merge additively — a touched tile's fiber
	// counts and footprint depend on the union of its entries — so the
	// touched tiles are re-summarized from (old entries in those tiles) +
	// delta and spliced over the old records. Touched base and micro key
	// sets are computed separately: micro tiles need not nest in base
	// tiles when TileDims is not a micro multiple.
	rep := &DeltaReport{}
	touchedT := touchedKeys(delta, p.TileDims)
	subT := filterPlus(old, p.TileDims, touchedT, delta)
	sumT, err := tiling.SummarizeCtx(ctx, subT, p.TileDims, p.Order, workers)
	if err != nil {
		return nil, nil, err
	}
	out.TileKeys, out.TileNNZ, out.TileFP, out.TileFibers =
		spliceTable(p.TileKeys, p.TileNNZ, p.TileFP, p.TileFibers, touchedT, sumT.Keys, sumT.NNZ, sumT.Footprint, sumT.Fibers)
	rep.TouchedTiles = len(sumT.Keys)
	rep.TotalTiles = len(out.TileKeys)

	touchedM := touchedKeys(delta, p.MicroDims)
	subM := filterPlus(old, p.MicroDims, touchedM, delta)
	sumM, err := tiling.SummarizeCtx(ctx, subM, p.MicroDims, p.Order, workers)
	if err != nil {
		return nil, nil, err
	}
	out.MicroKeys, out.MicroNNZ, out.MicroFP, _ =
		spliceTable(p.MicroKeys, p.MicroNNZ, p.MicroFP, nil, touchedM, sumM.Keys, sumM.NNZ, sumM.Footprint, nil)
	rep.TouchedMicro = len(sumM.Keys)
	rep.TotalMicro = len(out.MicroKeys)
	return out, rep, nil
}

// touchedKeys returns the set of tile keys (at the given grid) that hold
// at least one delta entry.
func touchedKeys(delta *tensor.COO, tileDims []int) map[uint64]struct{} {
	n := delta.Order()
	oc := make([]int, n)
	set := make(map[uint64]struct{})
	for pos := 0; pos < delta.NNZ(); pos++ {
		for a := 0; a < n; a++ {
			oc[a] = delta.Crds[a][pos] / tileDims[a]
		}
		set[tiling.Key(oc)] = struct{}{}
	}
	return set
}

// filterPlus builds the sub-tensor holding every old entry that falls in
// a touched tile, plus every delta entry (all of which do by
// construction) — exactly the touched tiles' entry population in the
// concatenated tensor.
func filterPlus(old *tensor.COO, tileDims []int, touched map[uint64]struct{}, delta *tensor.COO) *tensor.COO {
	n := old.Order()
	sub := tensor.New(old.Dims...)
	oc := make([]int, n)
	coord := make([]int, n)
	for pos := 0; pos < old.NNZ(); pos++ {
		for a := 0; a < n; a++ {
			oc[a] = old.Crds[a][pos] / tileDims[a]
		}
		if _, ok := touched[tiling.Key(oc)]; !ok {
			continue
		}
		for a := 0; a < n; a++ {
			coord[a] = old.Crds[a][pos]
		}
		sub.Append(coord, old.Vals[pos])
	}
	for pos := 0; pos < delta.NNZ(); pos++ {
		for a := 0; a < n; a++ {
			coord[a] = delta.Crds[a][pos]
		}
		sub.Append(coord, delta.Vals[pos])
	}
	return sub
}

// spliceTable replaces the touched keys' records in a key-ascending
// table with freshly summarized ones (whose key set is exactly the
// non-empty touched keys) and returns the merged table, still
// ascending. fibers is nil for micro tables.
func spliceTable(oldKeys []uint64, oldNNZ, oldFP []int32, oldFib [][]int32, touched map[uint64]struct{}, newKeys []uint64, newNNZ, newFP []int32, newFib [][]int32) ([]uint64, []int32, []int32, [][]int32) {
	total := len(oldKeys) + len(newKeys)
	keys := make([]uint64, 0, total)
	nnz := make([]int32, 0, total)
	fp := make([]int32, 0, total)
	var fib [][]int32
	if oldFib != nil {
		fib = make([][]int32, len(oldFib))
		back := make([]int32, len(oldFib)*total)
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
	for i < len(oldKeys) || j < len(newKeys) {
		if i < len(oldKeys) {
			if _, drop := touched[oldKeys[i]]; drop {
				i++
				continue
			}
		}
		switch {
		case j >= len(newKeys):
			take(oldKeys, oldNNZ, oldFP, oldFib, i)
			i++
		case i >= len(oldKeys) || newKeys[j] < oldKeys[i]:
			take(newKeys, newNNZ, newFP, newFib, j)
			j++
		default:
			take(oldKeys, oldNNZ, oldFP, oldFib, i)
			i++
		}
	}
	return keys, nnz, fp, fib
}
