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
	var cnt [1 << Bits]int
	for shift := 0; shift < bits.Len64(hi); shift += Bits {
		clear(cnt[:])
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
