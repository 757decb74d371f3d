package radix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomGrid draws a grid of order 0–6 whose product fits a uint64, with
// extents from 1 up to 2^20 so that keys span both decode paths (below
// and above 2^32).
func randomGrid(r *rand.Rand) []int {
	n := r.Intn(7)
	dims := make([]int, n)
	budget := 63.0 // log2 bits left
	for a := range dims {
		bits := r.Float64() * min(20, budget/float64(n-a))
		dims[a] = max(1, int(math.Exp2(bits)))
		budget -= math.Log2(float64(dims[a]))
	}
	return dims
}

func randomTuple(r *rand.Rand, dims []int) []int {
	x := make([]int, len(dims))
	for a, d := range dims {
		x[a] = r.Intn(d)
	}
	return x
}

// TestCodecProperties: Decode inverts Encode, keys order like the
// coordinate tuples, the prefix of a key is the truncated tuple's key in
// the grid of the leading extents, Transpose keys the permuted tuples,
// and out-of-grid tuples have no key.
func TestCodecProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		dims := randomGrid(r)
		c, err := NewCodec(dims)
		if err != nil {
			t.Fatalf("grid %v: %v", dims, err)
		}
		order := r.Perm(len(dims))
		tuples := make([][]int, 40)
		keys := make([]uint64, len(tuples))
		dec := make([]int, len(dims))
		for i := range tuples {
			x := randomTuple(r, dims)
			k, ok := c.Encode(x)
			if !ok || k >= c.Size() {
				t.Fatalf("grid %v: Encode(%v) = %d, %v (size %d)", dims, x, k, ok, c.Size())
			}
			c.Decode(dec, k)
			if !slices.Equal(dec, x) {
				t.Fatalf("grid %v: Decode(Encode(%v)) = %v", dims, x, dec)
			}
			for l := 0; l <= len(dims); l++ {
				head, err := NewCodec(dims[:l])
				if err != nil {
					t.Fatal(err)
				}
				want, _ := head.Encode(x[:l])
				if got := c.Prefix(k, l); got != want {
					t.Fatalf("grid %v: Prefix(Encode(%v), %d) = %d, truncated tuple's key %d", dims, x, l, got, want)
				}
			}
			tuples[i], keys[i] = x, k
		}
		perm, pkeys := c.Transpose(order, keys)
		if perm.Size() != c.Size() {
			t.Fatalf("grid %v transposed by %v: size %d, want %d", dims, order, perm.Size(), c.Size())
		}
		for i, x := range tuples {
			px := make([]int, len(dims))
			for l, a := range order {
				px[l] = x[a]
			}
			if want, _ := perm.Encode(px); pkeys[i] != want {
				t.Fatalf("grid %v transposed by %v: %v keyed %d, want %d", dims, order, x, pkeys[i], want)
			}
		}
		for i := range tuples {
			for j := range tuples {
				if (keys[i] < keys[j]) != (slices.Compare(tuples[i], tuples[j]) < 0) {
					t.Fatalf("grid %v: keys %d, %d order unlike tuples %v, %v", dims, keys[i], keys[j], tuples[i], tuples[j])
				}
			}
		}
		if len(dims) > 0 {
			a := r.Intn(len(dims))
			for _, v := range []int{-1, dims[a]} {
				x := randomTuple(r, dims)
				x[a] = v
				if k, ok := c.Encode(x); ok {
					t.Fatalf("grid %v: out-of-grid %v has key %d", dims, x, k)
				}
			}
		}
		if k, ok := c.Encode(make([]int, len(dims)+1)); ok {
			t.Fatalf("grid %v: a longer tuple has key %d", dims, k)
		}
	}
}

// TestCodecBound: a grid of exactly 2^64 cells is rejected, in any field
// order; one of 2^64−1 cells is accepted and its last key round-trips.
func TestCodecBound(t *testing.T) {
	for _, dims := range [][]int{
		{1 << 32, 1 << 32},
		{1 << 16, 1 << 16, 1 << 16, 1 << 16},
		{2, 1 << 62, 2},
		{0, 1 << 32, 1 << 32},
	} {
		if _, err := NewCodec(dims); err == nil {
			t.Fatalf("grid %v of 2^64 cells accepted", dims)
		}
	}
	// 2^64−1 = (2^32−1)(2^32+1) = 3·5·17·257·641·65537·6700417.
	for _, dims := range [][]int{
		{1<<32 - 1, 1<<32 + 1},
		{3, 5, 17, 257, 641, 65537, 6700417},
		{6700417, 1, 3, 65537, 5, 641, 17, 257},
	} {
		c, err := NewCodec(dims)
		if err != nil {
			t.Fatalf("grid %v of 2^64-1 cells: %v", dims, err)
		}
		if c.Size() != math.MaxUint64 {
			t.Fatalf("grid %v: size %d", dims, c.Size())
		}
		last := make([]int, len(dims))
		for a, d := range dims {
			last[a] = d - 1
		}
		k, ok := c.Encode(last)
		if !ok || k != math.MaxUint64-1 {
			t.Fatalf("grid %v: last cell key %d, %v", dims, k, ok)
		}
		dec := make([]int, len(dims))
		if c.Decode(dec, k); !slices.Equal(dec, last) {
			t.Fatalf("grid %v: last key decodes to %v", dims, dec)
		}
	}
	if _, err := NewCodec([]int{3, -1}); err == nil {
		t.Fatal("negative extent accepted")
	}
}

// TestCoarsenMatchesDecodeDivideEncode: Coarsen is Decode, a division
// per field, and Encode in the coarse grid.
func TestCoarsenMatchesDecodeDivideEncode(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		dims := randomGrid(r)
		c, _ := NewCodec(dims)
		coarse := make([]int, len(dims))
		div := make([]uint64, len(dims))
		f := make([]int, len(dims))
		for a, d := range dims {
			f[a] = 1 + r.Intn(d)
			div[a] = uint64(f[a])
			coarse[a] = (d + f[a] - 1) / f[a]
		}
		to, err := NewCodec(coarse)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]int, len(dims))
		for i := 0; i < 40; i++ {
			k, _ := c.Encode(randomTuple(r, dims))
			c.Decode(x, k)
			for a := range x {
				x[a] /= f[a]
			}
			want, ok := to.Encode(x)
			if got := c.Coarsen(k, div, to); !ok || got != want {
				t.Fatalf("grid %v by %v: Coarsen(%d) = %d, want %d", dims, f, k, got, want)
			}
		}
	}
}
