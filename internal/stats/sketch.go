package stats

import "sort"

// sketchSize is the bottom-k sketch capacity: 256 hashes estimate
// Jaccard similarity within a few percent, plenty for the binary
// correlated-vs-independent decision the model makes.
const sketchSize = 256

// bottomK keeps the k smallest hashes seen — a classic MinHash variant
// whose merge supports Jaccard estimation between sets.
type bottomK struct {
	k    int
	heap []uint64 // max-heap of the k smallest values
}

func newBottomK(k int) *bottomK { return &bottomK{k: k} }

func (b *bottomK) add(h uint64) {
	if len(b.heap) < b.k {
		b.heap = append(b.heap, h)
		b.up(len(b.heap) - 1)
		return
	}
	if h >= b.heap[0] {
		return
	}
	// Replace the current maximum.
	b.heap[0] = h
	b.down(0)
}

func (b *bottomK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.heap[parent] >= b.heap[i] {
			return
		}
		b.heap[parent], b.heap[i] = b.heap[i], b.heap[parent]
		i = parent
	}
}

func (b *bottomK) down(i int) {
	n := len(b.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && b.heap[l] > b.heap[largest] {
			largest = l
		}
		if r < n && b.heap[r] > b.heap[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		b.heap[i], b.heap[largest] = b.heap[largest], b.heap[i]
		i = largest
	}
}

// merge folds o's contents into b. The heap holds the k-smallest
// multiset of everything added, and the k-smallest of a union equals the
// k-smallest of the per-part k-smallest, so merging per-chunk sketches
// reproduces the serial single-pass sketch exactly in any order.
func (b *bottomK) merge(o *bottomK) {
	for _, h := range o.heap {
		b.add(h)
	}
}

// multiset returns the sketch's k-smallest multiset sorted ascending,
// duplicates retained — the mergeable accumulator form Partial carries.
// Merging two multisets and truncating to k reproduces the k-smallest of
// the union; deduplicating first would drop a duplicate hash that
// straddles two partials and break the monoid.
func (b *bottomK) multiset() []uint64 {
	out := append([]uint64(nil), b.heap...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
