package exec

import (
	"sort"

	"d2t2/internal/checked"
	"d2t2/internal/formats"
	"d2t2/internal/tiling"
)

// joinProduct performs the inner-tile computation of one alive summand at
// the current outer iteration point: a left-deep hash join of the member
// tiles over their shared inner index variables. It updates MAC counts
// and accumulates reduced partial results into the output accumulator.
func (r *runner) joinProduct(prod []int) {
	// Relation: tuple coordinates per var in `vars`, and a value each.
	var vars []string
	var tuples []int32
	var vals []float64

	for step, ri := range prod {
		st := r.refs[ri]
		tile := r.tileOf(st)
		if tile == nil {
			return // outer filtering guarantees this does not happen
		}
		ent := r.entriesOf(st, tile)
		n := len(ent.vals)
		if step == 0 {
			vars = append(vars, st.ref.Indices...)
			tuples = make([]int32, 0, n*len(vars))
			for p := 0; p < n; p++ {
				for a := range st.ref.Indices {
					tuples = append(tuples, ent.crds[a][p])
				}
			}
			vals = append(vals, ent.vals...)
			continue
		}

		// Shared vars between the accumulated relation and this ref.
		var sharedRel, sharedRef []int // positions
		var newAxes []int              // ref axes not already bound
		for a, ix := range st.ref.Indices {
			pos := -1
			for vp, v := range vars {
				if v == ix {
					pos = vp
					break
				}
			}
			if pos >= 0 {
				sharedRel = append(sharedRel, pos)
				sharedRef = append(sharedRef, a)
			} else {
				newAxes = append(newAxes, a)
			}
		}

		// Hash the ref entries on the shared coordinates' mixed-radix
		// key over the tile dims (a bucket holds ascending positions).
		// The key only wraps past 64 bits, and a probe checks the shared
		// coordinates anyway, so the join is exact at any tile size.
		type bucket []int32 // entry positions
		hash := make(map[uint64]bucket, n)
		for p := 0; p < n; p++ {
			var key uint64
			for _, a := range sharedRef {
				key = key*uint64(st.tt.TileDims[a]) + uint64(ent.crds[a][p])
			}
			hash[key] = append(hash[key], checked.Int32(p))
		}

		stride := len(vars)
		newVars := append([]string{}, vars...)
		for _, a := range newAxes {
			newVars = append(newVars, st.ref.Indices[a])
		}
		var outTuples []int32
		var outVals []float64
		for t := 0; t < len(vals); t++ {
			base := tuples[t*stride : (t+1)*stride]
			var key uint64
			for x, vp := range sharedRel {
				key = key*uint64(st.tt.TileDims[sharedRef[x]]) + uint64(base[vp])
			}
		probe:
			for _, p := range hash[key] {
				for x, vp := range sharedRel {
					if base[vp] != ent.crds[sharedRef[x]][p] {
						continue probe
					}
				}
				outTuples = append(outTuples, base...)
				for _, a := range newAxes {
					outTuples = append(outTuples, ent.crds[a][p])
				}
				outVals = append(outVals, vals[t]*ent.vals[p])
			}
		}
		r.traffic.MACs += int64(len(outVals))
		vars, tuples, vals = newVars, outTuples, outVals
		if len(vals) == 0 {
			return
		}
	}
	// Reduce into the output accumulator over the out index variables.
	// (A single-factor summand performs no multiplications but still
	// produces output.)
	outPos := make([]int, len(r.e.Out.Indices))
	for a, ix := range r.e.Out.Indices {
		pos := -1
		for vp, v := range vars {
			if v == ix {
				pos = vp
				break
			}
		}
		outPos[a] = pos // guaranteed >= 0 by validation
	}
	stride := len(vars)
	nOut := len(r.e.Out.Indices)
	for t := 0; t < len(vals); t++ {
		base := tuples[t*stride : (t+1)*stride]
		var innerKey uint64
		for a := 0; a < nOut; a++ {
			innerKey = innerKey*uint64(r.outTileDims[a]) + uint64(base[outPos[a]])
		}
		r.outAcc[innerKey] += vals[t]
		if r.collect != nil {
			var globalKey uint64
			for a := 0; a < nOut; a++ {
				d := r.e.OrderPos(r.e.Out.Indices[a])
				global := uint64(r.bound[d])*uint64(r.outTileDims[a]) + uint64(base[outPos[a]])
				globalKey = globalKey*uint64(r.outDims[a]) + global
			}
			r.collect[globalKey] += vals[t]
		}
	}
}

// entriesOf decodes (and caches) a tile's inner coordinates in axis
// order.
func (r *runner) entriesOf(st *refState, tile *tiling.Tile) *entryList {
	if e := st.entries[tile]; e != nil {
		return e
	}
	e := decodeEntries(st.tt, tile)
	st.entries[tile] = e
	return e
}

// decodeEntries decodes a tile's entries into per-axis coordinate lists
// plus values, in the tile CSF's depth-first storage order (the order
// ToCOO restores). A plain tile's leaf coordinates and values already
// are that order, so the lists share them (capped, so nothing appends
// into the tile) and only the upper levels expand. For packed
// super-tiles (tiling.PackTiles), member entries are re-based from
// member-tile origins to the packed tile's origin. Shared by the
// generic walker's cache and the engine's predecode; both paths
// therefore see identical entry order, which the float-determinism
// argument of the engine relies on. Neither writes to the lists.
func decodeEntries(tt *tiling.TiledTensor, tile *tiling.Tile) *entryList {
	n := len(tt.Dims)
	e := &entryList{crds: make([][]int32, n)}
	if tile.Members == nil {
		csf := tile.CSF
		last := csf.Levels() - 1
		nnz := csf.NNZ()
		e.vals = csf.Vals[:nnz:nnz]
		e.crds[csf.Order[last]] = csf.Crd[last][:nnz:nnz]
		for l := 0; l < last; l++ {
			e.crds[csf.Order[l]] = appendLevel(make([]int32, 0, nnz), csf, l, 0)
		}
		return e
	}
	total := tile.NNZ()
	e.vals = make([]float64, 0, total)
	for a := 0; a < n; a++ {
		e.crds[a] = make([]int32, 0, total)
	}
	off := make([]int32, n)
	for _, m := range tile.Members {
		for a := 0; a < n; a++ {
			off[a] = checked.Int32(m.Outer[a]*tt.PackedFrom[a] - tile.Outer[a]*tt.TileDims[a])
		}
		for l, a := range m.CSF.Order {
			e.crds[a] = appendLevel(e.crds[a], m.CSF, l, off[a])
		}
		e.vals = append(e.vals, m.CSF.Vals...)
	}
	return e
}

// appendLevel appends csf's level-l coordinate of every leaf, in
// depth-first order, plus off: each coordinate repeats over the leaves
// of its subtree.
func appendLevel(dst []int32, csf *formats.CSF, l int, off int32) []int32 {
	lv := csf.Levels()
	for p, c := range csf.Crd[l] {
		lo, hi := p, p+1
		for m := l + 1; m < lv; m++ {
			lo, hi = int(csf.Seg[m][lo]), int(csf.Seg[m][hi])
		}
		for ; lo < hi; lo++ {
			dst = append(dst, c+off)
		}
	}
	return dst
}

// flushOutput writes the accumulated output tile: its CSF footprint is
// added to the output traffic.
func (r *runner) flushOutput() {
	nnz := len(r.outAcc)
	if nnz == 0 {
		return
	}
	if r.opts.ValuesOnly {
		r.traffic.Output += int64(nnz)
		r.traffic.OutputWrites++
		r.traffic.OutputNNZ += int64(nnz)
		return
	}
	keys := make([]uint64, 0, nnz)
	for k := range r.outAcc {
		keys = append(keys, k)
	}
	// Decode inner coordinates and order them by the output level order.
	nOut := len(r.e.Out.Indices)
	coords := make([][]int32, nnz)
	for i, k := range keys {
		c := make([]int32, nOut)
		for a := nOut - 1; a >= 0; a-- {
			c[a] = checked.Int32(int(k % uint64(r.outTileDims[a])))
			k /= uint64(r.outTileDims[a])
		}
		coords[i] = c
	}
	lv := r.outLevels
	sort.Slice(coords, func(x, y int) bool {
		for _, a := range lv {
			if coords[x][a] != coords[y][a] {
				return coords[x][a] < coords[y][a]
			}
		}
		return false
	})
	// CSF footprint: values + per-level coordinate and segment words.
	words := nnz
	fibers := make([]int, nOut)
	for i := range coords {
		div := 0
		if i > 0 {
			for div = 0; div < nOut; div++ {
				if coords[i][lv[div]] != coords[i-1][lv[div]] {
					break
				}
			}
		}
		for l := div; l < nOut; l++ {
			fibers[l]++
		}
	}
	for l := 0; l < nOut; l++ {
		words += fibers[l] // coordinates
		if l == 0 {
			words += 2
		} else {
			words += fibers[l-1] + 1
		}
	}
	writes := int64(1)
	if b := r.opts.OutputBufferWords; b > 0 && words > b {
		// Overflow streaming (§6): the tile leaves the chip in
		// ceil(words/b) chunks; every extra chunk repeats the per-partial
		// segment overhead (root segment bounds plus a descriptor word).
		writes = int64((words + b - 1) / b)
		words += int(writes-1) * (nOut + 2)
		r.traffic.OutputOverflows += writes - 1
	}
	r.traffic.Output += int64(words)
	r.traffic.OutputWrites += writes
	r.traffic.OutputNNZ += int64(nnz)
}
