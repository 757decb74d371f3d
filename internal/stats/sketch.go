package stats

import "slices"

// sketchSize is the bottom-k sketch capacity: 256 hashes estimate
// Jaccard similarity within a few percent, plenty for the binary
// correlated-vs-independent decision the model makes.
const sketchSize = 256

// bottomK keeps the k smallest hashes seen, duplicates included — a
// classic MinHash variant whose merge supports Jaccard estimation
// between sets. It buffers hashes unsorted and cuts a buffer of 2k back
// to its k smallest with one selection, leaving them unsorted; the
// multiset sorts once. Once cut, a hash at or above the k-th smallest
// cannot enter the k smallest, so it is dropped as it arrives: every
// entry of one row in one column tile brings one pair hash, so most
// arrivals are such repeats.
type bottomK struct {
	k     int
	buf   []uint64 // holds the k smallest of everything added
	cut   bool     // buf has been cut: bound is its k-th smallest
	bound uint64
}

func newBottomK(k int) *bottomK { return &bottomK{k: k} }

func (b *bottomK) add(h uint64) {
	if b.cut && h >= b.bound {
		return
	}
	b.buf = append(b.buf, h)
	if len(b.buf) >= 2*b.k {
		b.trim()
	}
}

// trim cuts the buffer to its k smallest, in no particular order.
func (b *bottomK) trim() {
	if len(b.buf) > b.k {
		b.bound, b.cut = selectK(b.buf, b.k), true
		b.buf = b.buf[:b.k]
	}
}

// selectK reorders s so that s[:k] holds its k smallest values, for
// 0 < k <= len(s), and returns the largest of them: a quickselect with a
// median-of-three pivot and a three-way partition, so runs of one
// repeated hash split in one pass, finished by an insertion sort.
func selectK(s []uint64, k int) uint64 {
	lo, hi := 0, len(s) // s[:lo] <= s[lo:hi] <= s[hi:], and lo < k <= hi
	for hi-lo > 12 {
		a, m, z := s[lo], s[lo+(hi-lo)/2], s[hi-1]
		pivot := max(min(a, m), min(max(a, m), z))
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case v < pivot:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > pivot:
				gt--
				s[i], s[gt] = s[gt], v
			default:
				i++
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k > gt:
			lo = gt
		default: // s[k-1] lies in the run equal to the pivot
			return pivot
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[k-1]
}

// merge folds o's contents into b. The buffer holds the k-smallest
// multiset of everything added, and the k-smallest of a union equals the
// k-smallest of the per-part k-smallest, so merging per-chunk sketches
// reproduces the serial single-pass sketch exactly in any order.
func (b *bottomK) merge(o *bottomK) {
	for _, h := range o.buf {
		b.add(h)
	}
}

// multiset returns the sketch's k-smallest multiset sorted ascending,
// duplicates retained — the mergeable accumulator form Partial carries.
// Merging two multisets and truncating to k reproduces the k-smallest of
// the union; deduplicating first would drop a duplicate hash that
// straddles two partials and break the monoid.
func (b *bottomK) multiset() []uint64 {
	b.trim()
	out := append([]uint64(nil), b.buf...)
	slices.Sort(out)
	return out
}

// dedupSorted removes adjacent duplicates from a sorted slice in place —
// the final step turning a k-smallest multiset into the set form
// PairSketch holds and SketchJaccard consumes.
func dedupSorted(s []uint64) []uint64 {
	w := 0
	for i, v := range s {
		if i > 0 && v == s[w-1] {
			continue
		}
		s[w] = v
		w++
	}
	return s[:w]
}

// SketchJaccard estimates the Jaccard similarity of the sets two sorted
// bottom-k sketches summarize.
func SketchJaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	k := sketchSize
	if len(a) < k {
		k = len(a)
	}
	if len(b) < k {
		k = len(b)
	}
	// Merge the two sketches, keep the k smallest distinct values, count
	// how many appear in both.
	i, j, taken, both := 0, 0, 0, 0
	for taken < k && (i < len(a) || j < len(b)) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			i++
		case i >= len(a) || b[j] < a[i]:
			j++
		default:
			both++
			i++
			j++
		}
		taken++
	}
	return float64(both) / float64(taken)
}

// hash64 is splitmix64, a fast high-quality mixing function.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
