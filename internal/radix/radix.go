// Package radix holds the one key layout of coordinate grids (Codec) and
// the one integer sort its keys feed: a stable least-significant-digit
// radix sort of uint64 keys into caller-owned scratch, so hot loops sort
// without allocating and without a comparison callback.
package radix

import "math/bits"

// Bits is the digit width: 2^11 counters fit in L1, and the packed key
// of a 1200×1200 matrix sorts in two passes.
const (
	Bits = 11
	mask = 1<<Bits - 1
)

// denseCells bounds the grids Dense calls dense: at most 8 cells per
// key. A table of such a grid's cells — a count, a sum or a mark per
// cell — costs a few bytes per cell, and one pass over it costs less
// than a multi-digit sort of the keys (BenchmarkSummarize and
// BenchmarkEvalShape, with peak RSS in view, set the bound; 8 and 16
// read alike).
const denseCells = 8

// Dense reports whether a grid of the given number of cells is dense in
// n keys, so its keys are better grouped through a table of its cells
// than sorted.
func Dense(cells uint64, n int) bool { return cells <= denseCells*uint64(n) }

// Sort sorts keys ascending over the significant bits of the largest
// key, using buf (same length) as scratch, and returns whichever of the
// two holds the result. When vals is non-nil it is permuted alongside
// keys, with vbuf (same length) as its scratch; the sort is stable, so
// equal keys keep their input order.
func Sort(keys, buf []uint64, vals, vbuf []int32) ([]uint64, []int32) {
	var hi uint64
	for _, k := range keys {
		hi |= k
	}
	var counters [1 << Bits]int
	top := bits.Len64(hi)
	for shift := 0; shift < top; shift += Bits {
		// The top pass's digits are below 2^(top-shift): it clears and
		// sums only that many counters.
		cnt := counters[:1<<min(Bits, top-shift)]
		clear(cnt)
		for _, k := range keys {
			cnt[k>>shift&mask]++
		}
		sum := 0
		for d, c := range cnt {
			cnt[d] = sum
			sum += c
		}
		if vals == nil {
			for _, k := range keys {
				d := k >> shift & mask
				buf[cnt[d]] = k
				cnt[d]++
			}
		} else {
			for i, k := range keys {
				d := k >> shift & mask
				buf[cnt[d]] = k
				vbuf[cnt[d]] = vals[i]
				cnt[d]++
			}
			vals, vbuf = vbuf, vals
		}
		keys, buf = buf, keys
	}
	return keys, vals
}
