package stats

import (
	"fmt"
	"math/bits"
	"slices"

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
	pl := &corrPlan{dim: dim, maxShift: maxShift, stride: stride, needed: make([]bool, dim)}
	// Windows of consecutive sources overlap when stride ≤ maxShift; mark
	// each position once so the plan costs O(dim), not O(dim·maxShift).
	next := 0
	for k := 0; k < dim; k += stride {
		for q := max(k, next); q <= k+maxShift && q < dim; q++ {
			pl.needed[q] = true
		}
		next = max(next, k+maxShift+1)
	}
	return pl
}

// corrKeySpace bounds the rest-key range for a tensor of the given dims:
// finalize packs each entry as rest·dim + position, so Corrs needs
// Π dims < 2^64 or distinct coordinates would collide. It returns the
// product of dims, or an error when that product does not fit a uint64.
func corrKeySpace(dims []int) (uint64, error) {
	prod := uint64(1)
	for _, d := range dims {
		hi, lo := bits.Mul64(prod, uint64(d))
		if hi != 0 {
			return 0, fmt.Errorf("stats: corr keys overflow: product of dims %v reaches 2^64", dims)
		}
		prod = lo
	}
	return prod, nil
}

// gather groups the needed entries by coordinate along axis; the "rest"
// of each entry (all other axes) is encoded into a single uint64 key.
// Count-then-fill into one flat backing array instead of a map of
// growing slices: two passes over the entries, a handful of allocations
// total. Each position's slice flat[off[k]:off[k+1]] comes back sorted —
// the canonical accumulator form Partial serializes and Merge merges.
func (pl *corrPlan) gather(t *tensor.COO, axis int) (off []int32, flat []uint64) {
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
	for p := 0; p < t.NNZ(); p++ {
		k := t.Crds[axis][p]
		if !pl.needed[k] {
			continue
		}
		var key uint64
		for a := 0; a < t.Order(); a++ {
			if a == axis {
				continue
			}
			key = key*uint64(t.Dims[a]) + uint64(t.Crds[a][p])
		}
		flat[cur[k]] = key
		cur[k]++
	}
	for k := 0; k < dim; k++ {
		slices.Sort(flat[off[k]:off[k+1]])
	}
	return off, flat
}

// finalize replays the overlap accumulation over a gathered (or merged)
// accumulator: for positions k and k+s along the axis, the overlap
// between the rest-key multisets of their entries, summed over sampled k
// and normalized so shift 0 is 1.
//
// The count runs over an inverted index rather than per (k, s) pair:
// every entry becomes the packed key rest·dim + position, and one sort
// groups the entries by rest key with positions ascending. Inside a rest
// key's run, each sampled source p meets every later position q within
// maxShift and adds min(mult_p, mult_q) to overlap[q−p] — exactly what a
// sorted-merge intersection of the two positions' multisets counts. The
// cost is the sort plus the number of matches, however many (k, s) pairs
// the plan spans. Sums are exact integers, so identical accumulators
// yield bit-identical curves regardless of how they were assembled.
func (pl *corrPlan) finalize(off []int32, flat []uint64) []float64 {
	dim := uint64(pl.dim)
	keys := make([]uint64, len(flat))
	for k := 0; k < pl.dim; k++ {
		for i := off[k]; i < off[k+1]; i++ {
			keys[i] = flat[i]*dim + uint64(k)
		}
	}
	keys, _ = radix.Sort(keys, make([]uint64, len(keys)), nil, nil)

	overlap := make([]int64, pl.maxShift+1)
	var run []posMult
	for i := 0; i < len(keys); {
		// One rest key's run, run-length encoded by position.
		lo := keys[i] / dim * dim
		run = run[:0]
		for i < len(keys) && keys[i]-lo < dim {
			j := i + 1
			for j < len(keys) && keys[j] == keys[i] {
				j++
			}
			run = append(run, posMult{int(keys[i] - lo), j - i})
			i = j
		}
		for a, src := range run {
			if src.pos%pl.stride != 0 {
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
