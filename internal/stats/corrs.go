package stats

import (
	"fmt"
	"slices"

	"d2t2/internal/checked"
	"d2t2/internal/radix"
	"d2t2/internal/tensor"
)

// corrPlan is the deterministic sampling frame behind the paper's Corrs
// statistic (Eq. 11): which source positions along the axis are sampled
// and which positions must therefore be gathered. The plan is a pure
// function of (dim, maxShift, sampleTarget) — independent of the data —
// which is what makes per-chunk corr accumulators mergeable: every
// partial gathers the same positions, so their per-position rest-key
// multisets concatenate into exactly the multisets a from-scratch gather
// over the combined entries would produce.
type corrPlan struct {
	dim      int
	maxShift int
	stride   int // sampled sources are the positions 0, stride, 2·stride, …
	needed   []bool
	source   []bool // source[k]: k is a sampled source (k%stride == 0)
}

func newCorrPlan(dim, maxShift, sampleTarget int) *corrPlan {
	if maxShift >= dim {
		maxShift = dim - 1
	}
	if maxShift < 0 {
		maxShift = 0
	}
	// Choose sampled source positions up front so only the entries inside
	// their shift windows are grouped and sorted — this is what keeps the
	// collection pass proportional to the paper's 1%-of-tiles sampling
	// rather than to the whole tensor.
	stride := 1
	if sampleTarget > 0 && dim > sampleTarget {
		stride = dim / sampleTarget
	}
	pl := &corrPlan{dim: dim, maxShift: maxShift, stride: stride, needed: make([]bool, dim), source: make([]bool, dim)}
	// Windows of consecutive sources overlap when stride ≤ maxShift; mark
	// each position once so the plan costs O(dim), not O(dim·maxShift).
	next := 0
	for k := 0; k < dim; k += stride {
		pl.source[k] = true
		for q := max(k, next); q <= k+maxShift && q < dim; q++ {
			pl.needed[q] = true
		}
		next = max(next, k+maxShift+1)
	}
	return pl
}

// corrRestGrid returns the grid of an entry's rest key along axis (its
// coordinates on the other axes). Rest key and position are the halves
// of its key in the tensor's grid with axis moved last, which must exist.
func corrRestGrid(dims []int, axis int) (*radix.Codec, error) {
	if _, err := radix.NewCodec(dims); err != nil {
		return nil, fmt.Errorf("stats: corr keys overflow: %w", err)
	}
	return radix.NewCodec(slices.Delete(slices.Clone(dims), axis, axis+1))
}

// gather groups the needed entries by coordinate along axis; the "rest"
// of each entry (all other axes) is its key in the rest grid.
// Count-then-fill into one flat backing array instead of a map of
// growing slices: two passes over the entries, a handful of allocations
// total. Each position's slice flat[off[k]:off[k+1]] comes back sorted —
// the canonical accumulator form Partial serializes and Merge merges —
// and only a position whose keys arrived out of order is sorted.
func (pl *corrPlan) gather(t *tensor.COO, axis int, rest *radix.Codec) (off []int32, flat []uint64) {
	dim := pl.dim
	cnt := make([]int32, dim+1)
	for p := 0; p < t.NNZ(); p++ {
		if k := t.Crds[axis][p]; pl.needed[k] {
			cnt[k+1]++
		}
	}
	off = make([]int32, dim+1)
	for k := 0; k < dim; k++ {
		off[k+1] = off[k] + cnt[k+1]
	}
	flat = make([]uint64, off[dim])
	cur := make([]int32, dim)
	copy(cur, off[:dim])
	// unsorted marks the positions whose rest keys arrived out of
	// ascending order; only those are sorted. A canonical tensor's keys
	// arrive in order along axis 0.
	unsorted := make([]bool, dim)
	rc := make([]int, 0, t.Order())
	for p := 0; p < t.NNZ(); p++ {
		k := t.Crds[axis][p]
		if !pl.needed[k] {
			continue
		}
		rc = rc[:0]
		for a, crd := range t.Crds {
			if a != axis {
				rc = append(rc, crd[p])
			}
		}
		c := cur[k]
		flat[c], _ = rest.Encode(rc)
		if c > off[k] && flat[c] < flat[c-1] {
			unsorted[k] = true
		}
		cur[k]++
	}
	for k, u := range unsorted {
		if u {
			slices.Sort(flat[off[k]:off[k+1]])
		}
	}
	return off, flat
}

// finalize replays the overlap accumulation over a gathered (or merged)
// accumulator: for positions k and k+s along the axis, the overlap
// between the rest-key multisets of their entries, summed over sampled k
// and normalized so shift 0 is 1.
//
// The count runs over an inverted index rather than per (k, s) pair:
// the entries grouped by rest key, with positions ascending inside each
// key's run. Inside a run, each sampled source p meets every later
// position q within maxShift and adds min(mult_p, mult_q) to
// overlap[q−p] — exactly what a sorted-merge intersection of the two
// positions' multisets counts. restCells is the size of the rest grid
// every key lies in: where it is dense in the entries (radix.Dense) the
// grouping is one counting transpose over its cells, else one stable
// radix sort of the keys carrying each entry's position. The cost is
// the grouping plus the number of matches, however many (k, s) pairs
// the plan spans. Sums are exact integers, so identical accumulators
// yield bit-identical curves regardless of how they were assembled.
func (pl *corrPlan) finalize(off []int32, flat []uint64, restCells uint64) []float64 {
	overlap := make([]int64, pl.maxShift+1)
	var run []posMult
	if radix.Dense(restCells, len(flat)) {
		// Counting transpose: end[r] counts key r's entries, then holds
		// the start of its bucket, and after the fill the end of it.
		// Positions land in ascending order, as the accumulator lists
		// them.
		end := make([]int32, restCells)
		for _, r := range flat {
			end[r]++
		}
		var sum int32
		for r, c := range end {
			end[r] = sum
			sum += c
		}
		pos := make([]int32, len(flat))
		for k := 0; k < pl.dim; k++ {
			kk := checked.Int32(k)
			for _, r := range flat[off[k]:off[k+1]] {
				pos[end[r]] = kk
				end[r]++
			}
		}
		lo := int32(0)
		for _, hi := range end {
			if hi > lo {
				run = appendRuns(run[:0], pos[lo:hi])
				pl.countRun(overlap, run)
			}
			lo = hi
		}
	} else {
		keys := slices.Clone(flat)
		pos := make([]int32, len(flat))
		for k := 0; k < pl.dim; k++ {
			kk := checked.Int32(k)
			for i := off[k]; i < off[k+1]; i++ {
				pos[i] = kk
			}
		}
		keys, pos = radix.Sort(keys, make([]uint64, len(keys)), pos, make([]int32, len(pos)))
		for lo := 0; lo < len(keys); {
			hi := lo + 1
			for hi < len(keys) && keys[hi] == keys[lo] {
				hi++
			}
			run = appendRuns(run[:0], pos[lo:hi])
			pl.countRun(overlap, run)
			lo = hi
		}
	}

	// Shift 0 is each source's own multiset size, i.e. the base.
	out := make([]float64, pl.maxShift+1)
	out[0] = 1
	if base := float64(overlap[0]); base > 0 {
		for s := 1; s < len(out); s++ {
			out[s] = float64(overlap[s]) / base
		}
	}
	return out
}

// appendRuns run-length encodes one rest key's ascending positions.
func appendRuns(run []posMult, pos []int32) []posMult {
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && pos[j] == pos[i] {
			j++
		}
		run = append(run, posMult{int(pos[i]), j - i})
		i = j
	}
	return run
}

// countRun adds one rest key's run to overlap: each sampled source meets
// itself and every later position within maxShift.
func (pl *corrPlan) countRun(overlap []int64, run []posMult) {
	for a, src := range run {
		if !pl.source[src.pos] {
			continue
		}
		for _, dst := range run[a:] {
			s := uint(dst.pos - src.pos)
			if s >= uint(len(overlap)) {
				break
			}
			overlap[s] += int64(min(src.mult, dst.mult))
		}
	}
}

// posMult is one position of a rest key's run and how many entries at
// that position carry the key.
type posMult struct {
	pos, mult int
}

// tileCorrs computes the paper's TileCorrs statistic (Eq. 12) with the
// conditional normalization of DESIGN.md §4: TileCorrs[s] is the
// probability that slice i+s is occupied given slice i is, so shift 0 is
// 1, an uncorrelated sparse occupancy gives the marginal density, and a
// fully dense occupancy gives 1 at every shift.
func tileCorrs(occ []bool, maxShift int) []float64 {
	if maxShift >= len(occ) {
		maxShift = len(occ) - 1
	}
	if maxShift < 0 {
		maxShift = 0
	}
	out := make([]float64, maxShift+1)
	out[0] = 1
	for s := 1; s <= maxShift; s++ {
		both, valid := 0, 0
		for i := 0; i+s < len(occ); i++ {
			if occ[i] {
				valid++
				if occ[i+s] {
					both++
				}
			}
		}
		if valid > 0 {
			out[s] = float64(both) / float64(valid)
		}
	}
	return out
}
