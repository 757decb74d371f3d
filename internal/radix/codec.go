package radix

import (
	"fmt"
	"math/bits"
)

// Codec is the row-major mixed-radix layout of a grid (Tensor-Go's
// Index_Off_Shape/UnravelIndex idiom): coordinates c over extents d have
// the key Σ c[a]·Π d[a+1:]. In-grid keys are dense in [0, Size()) and
// order like the coordinate tuples, so sorting keys sorts tuples. Every
// coordinate packing of the tiler, the statistics and the model is a
// Codec, so a grid of any order has keys when its product fits 64 bits.
type Codec struct {
	dims  []uint64
	place []uint64 // place[a] = Π dims[a:]: the first a fields key as key/place[a]
}

// NewCodec returns the codec of the grid with the given extents. It
// errors when an extent is negative or the grid product (zero extents
// left out) reaches 2^64: the one bound on keyed grids of every order.
func NewCodec(dims []int) (*Codec, error) {
	n := len(dims)
	c := &Codec{dims: make([]uint64, n), place: make([]uint64, n+1)}
	c.place[n] = 1
	prod := uint64(1)
	for a := n - 1; a >= 0; a-- {
		if dims[a] < 0 {
			return nil, fmt.Errorf("radix: grid %v has a negative extent", dims)
		}
		d := uint64(dims[a])
		hi, lo := bits.Mul64(prod, max(d, 1))
		if hi != 0 {
			return nil, fmt.Errorf("radix: grid %v has 2^64 or more cells, past the 64-bit key bound", dims)
		}
		prod, c.dims[a], c.place[a] = lo, d, c.place[a+1]*d
	}
	return c, nil
}

// Size returns the number of grid cells: every in-grid key is below it.
func (c *Codec) Size() uint64 { return c.place[0] }

// Stride returns the key step of field a: the product of the extents
// after it, so a key is Σ x[a]·Stride(a).
func (c *Codec) Stride(a int) uint64 { return c.place[a+1] }

// Encode returns the key of x, or ok false when x has the wrong length or
// a coordinate outside the grid: such a tuple has no key to alias.
func (c *Codec) Encode(x []int) (key uint64, ok bool) {
	if len(x) != len(c.dims) {
		return 0, false
	}
	for a, v := range x {
		if uint64(v) >= c.dims[a] {
			return 0, false
		}
		key += uint64(v) * c.place[a+1]
	}
	return key, true
}

// Decode writes the coordinates of key, which must be below Size(), into
// dst (one per field).
func (c *Codec) Decode(dst []int, key uint64) {
	for a := len(dst) - 1; a > 0; a-- {
		q := key / c.dims[a]
		dst[a] = int(key - q*c.dims[a])
		key = q
	}
	if len(dst) > 0 {
		dst[0] = int(key)
	}
}

// Prefix returns the key of the first l fields of key in the grid of the
// first l extents: the encoding of the truncated tuple.
func (c *Codec) Prefix(key uint64, l int) uint64 {
	return key / c.place[l]
}

// Transpose returns the codec of c's fields permuted by order (field l is
// field order[l] of c) and, in it, the key of each cell keys name.
func (c *Codec) Transpose(order []int, keys []uint64) (*Codec, []uint64) {
	dims := make([]int, len(order))
	for l, a := range order {
		dims[l] = int(c.dims[a])
	}
	t, _ := NewCodec(dims) // the same cells, so the product fits
	x, y := make([]int, len(order)), make([]int, len(order))
	out := make([]uint64, len(keys))
	for i, k := range keys {
		c.Decode(x, k)
		for l, a := range order {
			y[l] = x[a]
		}
		out[i], _ = t.Encode(y)
	}
	return t, out
}

// Coarsen returns the key in grid to of key's coordinates divided field
// by field by div: the coarse cell holding key's cell when each cell of
// to spans div[a] cells of c along field a. The quotients must lie
// inside to.
func (c *Codec) Coarsen(key uint64, div []uint64, to *Codec) uint64 {
	var out uint64
	for a := len(c.dims) - 1; a > 0; a-- {
		q := key / c.dims[a]
		out += (key - q*c.dims[a]) / div[a] * to.place[a+1]
		key = q
	}
	if len(div) > 0 {
		out += key / div[0] * to.place[1]
	}
	return out
}
