// Package tensor provides the coordinate-list (COO) sparse tensor value
// type that the rest of the system is built on. A COO tensor stores one
// coordinate tuple and one value per stored (structurally nonzero) entry.
//
// The package deliberately keeps the representation simple and fully
// in-memory: every downstream component (CSF construction, tiling, the
// statistics collector, the measurement backend) starts from a COO tensor.
package tensor

import (
	"fmt"
	"math"
	"sort"

	"d2t2/internal/radix"
)

// COO is an order-N sparse tensor in coordinate format. Crds holds one
// slice per stored entry position: Crds[axis][p] is the coordinate of the
// p-th entry along axis. Vals[p] is the value of the p-th entry.
//
// A COO may transiently hold duplicate coordinates (e.g. while being
// assembled); call Dedup to combine them. Most consumers require sorted,
// deduplicated input and say so in their contracts.
type COO struct {
	Dims []int
	Crds [][]int
	Vals []float64
}

// New returns an empty COO tensor with the given dimension sizes.
func New(dims ...int) *COO {
	d := make([]int, len(dims))
	copy(d, dims)
	crds := make([][]int, len(dims))
	return &COO{Dims: d, Crds: crds}
}

// Order returns the number of dimensions (the tensor order).
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored entries.
func (t *COO) NNZ() int { return len(t.Vals) }

// Density returns NNZ divided by the dense size of the tensor.
func (t *COO) Density() float64 {
	size := 1.0
	for _, d := range t.Dims {
		size *= float64(d)
	}
	if size == 0 {
		return 0
	}
	return float64(t.NNZ()) / size
}

// Append adds an entry. The coordinate slice must have one coordinate per
// dimension. Append does not check for duplicates; call Dedup afterwards
// if duplicates are possible.
func (t *COO) Append(coord []int, val float64) {
	if len(coord) != len(t.Dims) {
		//d2t2:ignore panicpolicy Append is the per-nonzero hot path; arity is a programmer invariant (callers build coord from t.Dims) and an error return would cost every construction loop
		panic(fmt.Sprintf("tensor: coordinate arity %d != order %d", len(coord), len(t.Dims)))
	}
	for a, c := range coord {
		if c < 0 || c >= t.Dims[a] {
			//d2t2:ignore panicpolicy same hot-path invariant: out-of-range coordinates are generator bugs, not recoverable input errors
			panic(fmt.Sprintf("tensor: coordinate %d out of range [0,%d) on axis %d", c, t.Dims[a], a))
		}
		t.Crds[a] = append(t.Crds[a], c)
	}
	t.Vals = append(t.Vals, val)
}

// At returns the coordinate tuple of entry p as a fresh slice.
func (t *COO) At(p int) []int {
	c := make([]int, t.Order())
	for a := range c {
		c[a] = t.Crds[a][p]
	}
	return c
}

// Clone returns a deep copy of the tensor.
func (t *COO) Clone() *COO { return t.CloneGrow(0) }

// CloneGrow returns a deep copy of the tensor with room for extra more
// entries, so appending them copies nothing again.
func (t *COO) CloneGrow(extra int) *COO {
	c := New(t.Dims...)
	n := t.NNZ()
	for a := range t.Crds {
		c.Crds[a] = append(make([]int, 0, n+extra), t.Crds[a]...)
	}
	c.Vals = append(make([]float64, 0, n+extra), t.Vals...)
	return c
}

// AllocBytes bounds the heap one allocation of n bytes occupies: n
// rounded up as the Go allocator rounds (size classes of at most 25%
// spacing below 32 KiB, whole 8 KiB pages above), plus a header's worth.
func AllocBytes(n int) int64 { return int64(n + min(n/4, 8<<10) + 16) }

// HeapBytes bounds the heap the tensor's storage occupies: every slice at
// its capacity (AllocBytes), plus the headers. It is the size a cache
// charges for holding the tensor.
func (t *COO) HeapBytes() int64 {
	b := AllocBytes(72) + AllocBytes(8*cap(t.Dims)) + AllocBytes(24*cap(t.Crds)) + AllocBytes(8*cap(t.Vals))
	for _, c := range t.Crds {
		b += AllocBytes(8 * cap(c))
	}
	return b
}

// Permute returns a new tensor whose axes are reordered so that new axis a
// is old axis perm[a]. For a matrix, Permute(1,0) is the transpose.
func (t *COO) Permute(perm ...int) *COO {
	if len(perm) != t.Order() {
		//d2t2:ignore panicpolicy permutations are literal at every call site; arity mismatch is a programmer invariant
		panic("tensor: permutation arity mismatch")
	}
	dims := make([]int, len(perm))
	for a, p := range perm {
		dims[a] = t.Dims[p]
	}
	out := New(dims...)
	for a, p := range perm {
		out.Crds[a] = append([]int(nil), t.Crds[p]...)
	}
	out.Vals = append([]float64(nil), t.Vals...)
	return out
}

// Transpose is Permute(1,0) and panics unless the tensor is a matrix.
func (t *COO) Transpose() *COO {
	if t.Order() != 2 {
		//d2t2:ignore panicpolicy documented contract ("panics unless the tensor is a matrix"); callers transpose matrices by construction
		panic("tensor: Transpose requires a matrix")
	}
	return t.Permute(1, 0)
}

// lessAt reports whether entry p sorts before entry q in lexicographic
// order of the axes listed in order.
func (t *COO) lessAt(order []int, p, q int) bool {
	for _, a := range order {
		cp, cq := t.Crds[a][p], t.Crds[a][q]
		if cp != cq {
			return cp < cq
		}
	}
	return false
}

// Sort sorts entries lexicographically by the given axis order. If order
// is nil the natural axis order (0,1,2,...) is used.
func (t *COO) Sort(order []int) {
	if order == nil {
		order = make([]int, t.Order())
		for a := range order {
			order[a] = a
		}
	}
	idx := make([]int, t.NNZ())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return t.lessAt(order, idx[i], idx[j]) })
	t.applyPermutation(idx)
}

// applyPermutation reorders entries so new position i holds old entry idx[i].
func (t *COO) applyPermutation(idx []int) {
	for a := range t.Crds {
		old := t.Crds[a]
		nw := make([]int, len(old))
		for i, p := range idx {
			nw[i] = old[p]
		}
		t.Crds[a] = nw
	}
	oldV := t.Vals
	nv := make([]float64, len(oldV))
	for i, p := range idx {
		nv[i] = oldV[p]
	}
	t.Vals = nv
}

// Dedup sorts the tensor in natural axis order and combines duplicate
// coordinates by summing their values. Entries whose combined value is
// exactly zero are retained (structural nonzeros), matching sparse-format
// convention. A canonical tensor is left as it is. Otherwise a stable
// radix sort of each entry's row-major position orders the entries, so
// duplicates are summed in input order; only a tensor whose dense size
// overflows 64 bits falls back to a comparison sort.
func (t *COO) Dedup() {
	if t.Canonical() || t.dedupRadix() {
		return
	}
	t.Sort(nil)
	w := 0
	for r := 1; r < t.NNZ(); r++ {
		if t.sameCoord(w, r) {
			t.Vals[w] += t.Vals[r]
			continue
		}
		w++
		for a := range t.Crds {
			t.Crds[a][w] = t.Crds[a][r]
		}
		t.Vals[w] = t.Vals[r]
	}
	t.truncate(w + 1)
}

// Canonical reports whether the entries are in strictly increasing
// natural axis order: sorted, with no duplicate coordinates, as Dedup
// leaves them.
func (t *COO) Canonical() bool {
next:
	for p := 1; p < t.NNZ(); p++ {
		for _, crd := range t.Crds {
			if crd[p] != crd[p-1] {
				if crd[p] < crd[p-1] {
					return false
				}
				continue next
			}
		}
		return false
	}
	return true
}

// dedupRadix is Dedup keyed by each entry's key in the tensor's
// coordinate grid (radix.Codec). It reports false, leaving t untouched,
// when the grid has no 64-bit keys, a coordinate lies outside it, or the
// entry count does not fit the sort's int32 permutation.
func (t *COO) dedupRadix() bool {
	n := t.NNZ()
	if n > math.MaxInt32 {
		return false
	}
	grid, err := radix.NewCodec(t.Dims)
	if err != nil {
		return false
	}
	keys := make([]uint64, n)
	idx := make([]int32, n)
	c := make([]int, len(t.Dims))
	for p := range keys {
		for a, crd := range t.Crds {
			c[a] = crd[p]
		}
		var ok bool
		if keys[p], ok = grid.Encode(c); !ok {
			return false
		}
		idx[p] = int32(p)
	}
	keys, idx = radix.Sort(keys, make([]uint64, n), idx, make([]int32, n))
	vals := make([]float64, 0, n)
	for r, k := range keys {
		if r > 0 && k == keys[r-1] {
			vals[len(vals)-1] += t.Vals[idx[r]]
			continue
		}
		w := len(vals)
		grid.Decode(c, k)
		for a, crd := range t.Crds {
			crd[w] = c[a]
		}
		vals = append(vals, t.Vals[idx[r]])
	}
	t.Vals = vals
	t.truncate(len(vals))
	return true
}

// truncate keeps the first n entries.
func (t *COO) truncate(n int) {
	for a := range t.Crds {
		t.Crds[a] = t.Crds[a][:n]
	}
	t.Vals = t.Vals[:n]
}

func (t *COO) sameCoord(p, q int) bool {
	for a := range t.Crds {
		if t.Crds[a][p] != t.Crds[a][q] {
			return false
		}
	}
	return true
}

// Equal reports whether two tensors hold identical dims, coordinates and
// values after sorting both in natural order. It is intended for tests.
func Equal(a, b *COO) bool {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return false
	}
	for i, d := range a.Dims {
		if b.Dims[i] != d {
			return false
		}
	}
	ac, bc := a.Clone(), b.Clone()
	ac.Sort(nil)
	bc.Sort(nil)
	for p := 0; p < ac.NNZ(); p++ {
		for x := range ac.Crds {
			if ac.Crds[x][p] != bc.Crds[x][p] {
				return false
			}
		}
		if ac.Vals[p] != bc.Vals[p] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether two tensors agree structurally and their
// values agree within a relative tolerance — use for results whose
// floating-point summation order may differ.
func AlmostEqual(a, b *COO, tol float64) bool {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return false
	}
	for i, d := range a.Dims {
		if b.Dims[i] != d {
			return false
		}
	}
	ac, bc := a.Clone(), b.Clone()
	ac.Sort(nil)
	bc.Sort(nil)
	for p := 0; p < ac.NNZ(); p++ {
		for x := range ac.Crds {
			if ac.Crds[x][p] != bc.Crds[x][p] {
				return false
			}
		}
		va, vb := ac.Vals[p], bc.Vals[p]
		diff := va - vb
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if va > 1 || va < -1 {
			if va < 0 {
				scale = -va
			} else {
				scale = va
			}
		}
		if diff > tol*scale {
			return false
		}
	}
	return true
}

// Validate checks internal consistency (slice lengths and bounds) and
// returns a descriptive error on the first violation.
func (t *COO) Validate() error {
	if len(t.Crds) != len(t.Dims) {
		return fmt.Errorf("tensor: %d coordinate axes for order-%d tensor", len(t.Crds), len(t.Dims))
	}
	n := t.NNZ()
	for a := range t.Crds {
		if len(t.Crds[a]) != n {
			return fmt.Errorf("tensor: axis %d has %d coords, want %d", a, len(t.Crds[a]), n)
		}
		for p, c := range t.Crds[a] {
			if c < 0 || c >= t.Dims[a] {
				return fmt.Errorf("tensor: entry %d axis %d coordinate %d out of range [0,%d)", p, a, c, t.Dims[a])
			}
		}
	}
	return nil
}

// FromDense builds a COO matrix from a dense row-major [][]float64,
// storing every nonzero element.
func FromDense(rows [][]float64) *COO {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	t := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rows[i][j] != 0 {
				t.Append([]int{i, j}, rows[i][j])
			}
		}
	}
	return t
}

// ToDense materializes the tensor as a dense nested slice. It panics for
// tensors that are not matrices and is intended for small test inputs.
func (t *COO) ToDense() [][]float64 {
	if t.Order() != 2 {
		//d2t2:ignore panicpolicy documented contract; ToDense is a test-support helper for small matrices
		panic("tensor: ToDense requires a matrix")
	}
	out := make([][]float64, t.Dims[0])
	for i := range out {
		out[i] = make([]float64, t.Dims[1])
	}
	for p := 0; p < t.NNZ(); p++ {
		out[t.Crds[0][p]][t.Crds[1][p]] += t.Vals[p]
	}
	return out
}

// DegreeOrder returns the permutation that sorts coordinates of the
// given axis by decreasing occupancy (slice nnz): perm[new] = old. Used
// to cluster hubs of graph matrices before tiling, which concentrates
// occupancy into fewer, denser tiles.
func (t *COO) DegreeOrder(axis int) []int {
	counts := make([]int, t.Dims[axis])
	for p := 0; p < t.NNZ(); p++ {
		counts[t.Crds[axis][p]]++
	}
	perm := make([]int, t.Dims[axis])
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return counts[perm[a]] > counts[perm[b]] })
	return perm
}

// Relabel returns a copy with the given axis' coordinates renamed so the
// value at old position perm[new] becomes new — i.e. applying the
// permutation returned by DegreeOrder clusters heavy slices at low
// coordinates. Pass the same permutation to the matching axes of other
// operands to keep a computation consistent.
func (t *COO) Relabel(axis int, perm []int) *COO {
	if len(perm) != t.Dims[axis] {
		//d2t2:ignore panicpolicy the permutation comes from DegreeOrder over the same axis; a length mismatch is a programmer invariant
		panic("tensor: relabel permutation has wrong length")
	}
	inv := make([]int, len(perm))
	for n, o := range perm {
		inv[o] = n
	}
	out := t.Clone()
	for p := 0; p < out.NNZ(); p++ {
		out.Crds[axis][p] = inv[out.Crds[axis][p]]
	}
	return out
}

// DropAxis returns a lower-order tensor with the given axis removed,
// summing entries that collide. It mirrors the paper's FF* preprocessing
// (FROSTT higher-order tensors flattened to 3-tensors by dropping modes).
func (t *COO) DropAxis(axis int) *COO {
	if axis < 0 || axis >= t.Order() {
		//d2t2:ignore panicpolicy axis is literal at every call site (FROSTT preprocessing); out-of-range is a programmer invariant
		panic("tensor: DropAxis out of range")
	}
	dims := make([]int, 0, t.Order()-1)
	keep := make([]int, 0, t.Order()-1)
	for a, d := range t.Dims {
		if a != axis {
			dims = append(dims, d)
			keep = append(keep, a)
		}
	}
	out := New(dims...)
	coord := make([]int, len(keep))
	for p := 0; p < t.NNZ(); p++ {
		for i, a := range keep {
			coord[i] = t.Crds[a][p]
		}
		out.Append(coord, t.Vals[p])
	}
	out.Dedup()
	return out
}
