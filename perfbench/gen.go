package main

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// The benchmark generates every tensor itself from the workload seed,
// with math/rand's frozen source, so the bytes a run uploads depend on
// the seed alone and never on the code under test.

// entries is a sparse tensor as the benchmark holds it: coordinates in
// row-major order, 0-based, no duplicates.
type entries struct {
	dims []int
	crds [][]int
	vals []float64
	seen map[int64]bool
}

func newEntries(dims ...int) *entries {
	return &entries{dims: dims, seen: make(map[int64]bool)}
}

func (e *entries) key(c []int) int64 {
	k := int64(0)
	for a, v := range c {
		k = k*int64(e.dims[a]) + int64(v)
	}
	return k
}

// add appends c unless it is already present; it reports whether it did.
func (e *entries) add(c []int, v float64) bool {
	k := e.key(c)
	if e.seen[k] {
		return false
	}
	e.seen[k] = true
	e.crds = append(e.crds, append([]int(nil), c...))
	e.vals = append(e.vals, v)
	return true
}

func (e *entries) nnz() int { return len(e.vals) }

// clone copies e so a later append to the copy leaves e untouched.
func (e *entries) clone() *entries {
	c := newEntries(e.dims...)
	for i, crd := range e.crds {
		c.add(crd, e.vals[i])
	}
	return c
}

// value draws a nonzero value whose decimal form round-trips exactly.
func value(r *rand.Rand) float64 {
	return float64(1+r.Intn(9999)) / 1000
}

// sorted returns the entry indexes in row-major coordinate order.
func (e *entries) sorted() []int {
	idx := make([]int, len(e.vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return e.key(e.crds[idx[a]]) < e.key(e.crds[idx[b]]) })
	return idx
}

// mtx renders an order-2 tensor as a Matrix Market file.
func (e *entries) mtx() []byte {
	var b bytes.Buffer
	b.WriteString("%%MatrixMarket matrix coordinate real general\n")
	b.WriteString(strconv.Itoa(e.dims[0]) + " " + strconv.Itoa(e.dims[1]) + " " + strconv.Itoa(e.nnz()) + "\n")
	for _, i := range e.sorted() {
		b.WriteString(strconv.Itoa(e.crds[i][0]+1) + " " + strconv.Itoa(e.crds[i][1]+1) + " ")
		b.WriteString(strconv.FormatFloat(e.vals[i], 'g', -1, 64) + "\n")
	}
	return b.Bytes()
}

// tns renders an order-3 tensor as a FROSTT .tns file. The reader
// infers dims from the largest coordinates, so the generator always
// places an entry at the far corner of every axis.
func (e *entries) tns() []byte {
	var b bytes.Buffer
	for _, i := range e.sorted() {
		for _, c := range e.crds[i] {
			b.WriteString(strconv.Itoa(c+1) + " ")
		}
		b.WriteString(strconv.FormatFloat(e.vals[i], 'g', -1, 64) + "\n")
	}
	return b.Bytes()
}

// Matrix structures the cold and resident corpora draw from.
var structures = []string{"powerlaw", "banded", "uniform", "neardiag"}

// genMatrix draws an n×n matrix with about deg entries per row.
func genMatrix(r *rand.Rand, structure string, n, deg int) *entries {
	e := newEntries(n, n)
	target := n * deg
	c := make([]int, 2)
	for attempts := 0; e.nnz() < target && attempts < 20*target; attempts++ {
		switch structure {
		case "powerlaw":
			// Row and column popularity both follow a power law, so a
			// few hub rows and columns hold most entries.
			c[0] = int(float64(n) * math.Pow(r.Float64(), 2.5))
			c[1] = int(float64(n) * math.Pow(r.Float64(), 2))
		case "banded":
			c[0] = r.Intn(n)
			c[1] = c[0] + r.Intn(4*deg+1) - 2*deg
		case "uniform":
			c[0], c[1] = r.Intn(n), r.Intn(n)
		case "neardiag":
			c[0] = r.Intn(n)
			c[1] = c[0] + int(math.Round(r.NormFloat64()*float64(n)/40))
		}
		if c[1] < 0 || c[1] >= n {
			continue
		}
		e.add(c, value(r))
	}
	// Pin the last row and column so the matrix spans its declared shape
	// whatever the structure drew.
	e.add([]int{n - 1, n - 1}, value(r))
	return e
}

// genTensor3 draws a d0×d1×d2 tensor with nnz entries, skewed toward
// low coordinates on the last two axes.
func genTensor3(r *rand.Rand, d0, d1, d2, nnz int) *entries {
	e := newEntries(d0, d1, d2)
	c := make([]int, 3)
	for attempts := 0; e.nnz() < nnz && attempts < 20*nnz; attempts++ {
		c[0] = r.Intn(d0)
		c[1] = int(float64(d1) * math.Pow(r.Float64(), 1.5))
		c[2] = int(float64(d2) * math.Pow(r.Float64(), 2))
		e.add(c, value(r))
	}
	e.add([]int{d0 - 1, d1 - 1, d2 - 1}, value(r))
	return e
}

// genFactor draws the dense-ish k×l factor matrix a TTM multiplies by.
func genFactor(r *rand.Rand, k, l int, density float64) *entries {
	e := newEntries(k, l)
	c := make([]int, 2)
	for c[0] = 0; c[0] < k; c[0]++ {
		for c[1] = 0; c[1] < l; c[1]++ {
			if r.Float64() < density {
				e.add(c, value(r))
			}
		}
	}
	e.add([]int{k - 1, l - 1}, value(r))
	return e
}

// genDelta draws m new coordinates that collide with nothing in e.
func genDelta(r *rand.Rand, e *entries, m int) ([][]int, []float64) {
	crds := make([][]int, 0, m)
	vals := make([]float64, 0, m)
	fresh := make(map[int64]bool, m)
	c := make([]int, len(e.dims))
	for len(vals) < m {
		for a := range c {
			c[a] = r.Intn(e.dims[a])
		}
		k := e.key(c)
		if e.seen[k] || fresh[k] {
			continue
		}
		fresh[k] = true
		crds = append(crds, append([]int(nil), c...))
		vals = append(vals, value(r))
	}
	return crds, vals
}

// stratified returns n values in [lo, hi), one from each of n equal
// strata, in a seeded order — a draw whose spread is the same for every
// seed, so per-run totals vary little between seeds.
func stratified(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		w := float64(hi-lo) / float64(n)
		out[i] = lo + int(w*float64(i)+w*r.Float64())
	}
	r.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// denseWords is the footprint of a fully dense square tile of side t
// and the given order, in words (the buffer the paper's Conservative
// scheme provisions).
func denseWords(t, order int) int {
	words, prod := 0, 1
	for a := 0; a < order; a++ {
		words += prod*t + prod + 1
		prod *= t
	}
	return words + prod
}
