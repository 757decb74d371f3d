package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/tensor"
)

// heapBottomK is the max-heap bottom-k sketch bottomK replaced, kept as
// its oracle: every add that beats the maximum sifts it down the heap.
type heapBottomK struct {
	k    int
	heap []uint64 // max-heap of the k smallest values
}

func (b *heapBottomK) add(h uint64) {
	if len(b.heap) < b.k {
		b.heap = append(b.heap, h)
		for i := len(b.heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if b.heap[parent] >= b.heap[i] {
				break
			}
			b.heap[parent], b.heap[i] = b.heap[i], b.heap[parent]
			i = parent
		}
		return
	}
	if h >= b.heap[0] {
		return
	}
	b.heap[0] = h
	for i, n := 0, len(b.heap); ; {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && b.heap[l] > b.heap[largest] {
			largest = l
		}
		if r < n && b.heap[r] > b.heap[largest] {
			largest = r
		}
		if largest == i {
			break
		}
		b.heap[i], b.heap[largest] = b.heap[largest], b.heap[i]
		i = largest
	}
}

func (b *heapBottomK) multiset() []uint64 {
	out := append([]uint64(nil), b.heap...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestBottomKMatchesHeapOracle: the buffered sketch's multiset equals
// the heap's, value for value and in capacity, on random streams, on
// streams where a few hashes repeat many times (the entries of one row
// in one column tile), and when the stream is cut into chunks whose
// sketches merge in any order.
func TestBottomKMatchesHeapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	streams := map[string]func(n int) []uint64{
		"random": func(n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = r.Uint64()
			}
			return s
		},
		"duplicates": func(n int) []uint64 {
			distinct := 1 + r.Intn(600)
			pool := make([]uint64, distinct)
			for i := range pool {
				pool[i] = hash64(uint64(r.Intn(1 << 12)))
			}
			s := make([]uint64, n)
			for i := range s {
				s[i] = pool[r.Intn(distinct)]
			}
			return s
		},
		"runs": func(n int) []uint64 {
			s := make([]uint64, 0, n)
			for len(s) < n {
				h := hash64(uint64(r.Intn(1 << 10)))
				for run := 1 + r.Intn(40); run > 0 && len(s) < n; run-- {
					s = append(s, h)
				}
			}
			return s
		},
	}
	for name, gen := range streams {
		for trial := 0; trial < 40; trial++ {
			k := []int{1, 2, 7, sketchSize}[trial%4]
			hashes := gen(r.Intn(3000))
			want := &heapBottomK{k: k}
			got := newBottomK(k)
			for _, h := range hashes {
				want.add(h)
				got.add(h)
			}
			check := func(how string, ms []uint64) {
				t.Helper()
				w := want.multiset()
				if !reflect.DeepEqual(ms, w) || cap(ms) != cap(w) {
					t.Fatalf("%s k=%d n=%d %s: multiset %v (cap %d), heap %v (cap %d)", name, k, len(hashes), how, ms, cap(ms), w, cap(w))
				}
			}
			check("serial", got.multiset())
			parts := make([]*bottomK, 1+r.Intn(5))
			for i := range parts {
				parts[i] = newBottomK(k)
			}
			for _, h := range hashes {
				parts[r.Intn(len(parts))].add(h)
			}
			merged := newBottomK(k)
			for _, i := range r.Perm(len(parts)) {
				merged.merge(parts[i])
			}
			check("merged", merged.multiset())
		}
	}
}

// BenchmarkBottomK adds the pair hashes the collector's entry pass adds,
// for each axis of a power-law and a banded matrix (64×64 tiles), to the
// buffered sketch and to the heap it replaced.
func BenchmarkBottomK(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		m    *tensor.COO
	}{
		{"powerlaw", gen.PowerLawGraph(r, 2048, 200_000, 1.7)},
		{"banded", gen.Banded(r, 4096, 32, 48)},
	} {
		tile := []int{64, 64}
		outer := []int{(tc.m.Dims[0] + 63) / 64, (tc.m.Dims[1] + 63) / 64}
		radixes, narrow := pairKeyRadixes(tc.m.Dims, outer)
		for a := range tc.m.Dims {
			hashes := make([]uint64, tc.m.NNZ())
			for pos := range hashes {
				var rest uint64
				for c, rd := range radixes[a] {
					if c != a {
						rest = rest*rd + uint64(tc.m.Crds[c][pos]/tile[c])
					}
				}
				hashes[pos] = pairHash(uint64(tc.m.Crds[a][pos]), rest, narrow[a])
			}
			b.Run(fmt.Sprintf("%s/axis=%d/buffer", tc.name, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sk := newBottomK(sketchSize)
					for _, h := range hashes {
						sk.add(h)
					}
					sk.multiset()
				}
			})
			b.Run(fmt.Sprintf("%s/axis=%d/heap", tc.name, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sk := &heapBottomK{k: sketchSize}
					for _, h := range hashes {
						sk.add(h)
					}
					sk.multiset()
				}
			})
		}
	}
}
