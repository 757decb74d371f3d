// Package formats implements the compressed storage formats used by the
// system: the compressed sparse fiber (CSF) trie for arbitrary-order
// tensors and CSR for matrices. CSF is the format the paper's statistics
// collector traverses; footprints computed here (values + segment +
// coordinate arrays) define the traffic unit used everywhere else.
package formats

import (
	"fmt"

	"d2t2/internal/checked"
	"d2t2/internal/tensor"
)

// CSF is a compressed-sparse-fiber tensor: a trie with one level per axis
// in Order. Level l stores Crd[l] (all fiber coordinates abutted) and
// Seg[l] (fiber boundaries): the children of node p at level l-1 occupy
// Crd[l][Seg[l][p]:Seg[l][p+1]]. Level 0 has a single implicit root, so
// Seg[0] is [0, len(Crd[0])]. Vals holds leaf values in Crd[last] order.
type CSF struct {
	// Dims are the dimension sizes in *level* order: Dims[l] is the size
	// of the axis stored at level l.
	Dims []int
	// Order[l] is the original tensor axis stored at level l.
	Order []int
	Seg   [][]int32
	Crd   [][]int32
	Vals  []float64
}

// Levels returns the number of trie levels (the tensor order).
func (c *CSF) Levels() int { return len(c.Dims) }

// NNZ returns the number of stored leaf values.
func (c *CSF) NNZ() int { return len(c.Vals) }

// FiberCount returns the number of coordinates stored at a level (the
// total number of fibers entering that level, summed over parents).
func (c *CSF) FiberCount(level int) int { return len(c.Crd[level]) }

// FootprintWords returns the storage footprint in 4-byte words: one word
// per value plus one per coordinate plus one per segment pointer, at every
// level. This is the traffic unit the paper uses ("the sum of the number
// of nonzeros and the size of all the segment and coordinate arrays").
func (c *CSF) FootprintWords() int {
	w := len(c.Vals)
	for l := 0; l < c.Levels(); l++ {
		w += len(c.Crd[l]) + len(c.Seg[l])
	}
	return w
}

// Build constructs a CSF from a COO tensor using the given level order
// (a permutation of axes; nil means natural order). The input is cloned,
// deduplicated and sorted; the original tensor is not modified.
func Build(t *tensor.COO, order []int) *CSF {
	if order == nil {
		order = make([]int, t.Order())
		for a := range order {
			order[a] = a
		}
	}
	if len(order) != t.Order() {
		//d2t2:ignore panicpolicy order arity is a programmer invariant: every caller passes a literal permutation or nil; an error return would infect every construction site for an impossible case
		panic(fmt.Sprintf("formats: order arity %d != tensor order %d", len(order), t.Order()))
	}
	src := t.Clone()
	src.Dedup()
	src.Sort(order)

	n := src.NNZ()
	lv := len(order)
	c := &CSF{
		Dims:  make([]int, lv),
		Order: append([]int(nil), order...),
		Seg:   make([][]int32, lv),
		Crd:   make([][]int32, lv),
		Vals:  append([]float64(nil), src.Vals...),
	}
	for l, a := range order {
		c.Dims[l] = src.Dims[a]
	}
	if n == 0 {
		for l := 0; l < lv; l++ {
			c.Seg[l] = []int32{0}
		}
		return c
	}

	// Seg[0] describes the single root fiber; deeper levels receive their
	// leading 0 when the first node of the parent level is emitted.
	c.Seg[0] = append(c.Seg[0], 0)
	for p := 0; p < n; p++ {
		// Find the first level where this entry's path diverges from the
		// previously emitted one.
		div := 0
		if p > 0 {
			for div = 0; div < lv; div++ {
				a := order[div]
				if src.Crds[a][p] != src.Crds[a][p-1] {
					break
				}
			}
		}
		for l := div; l < lv; l++ {
			a := order[l]
			c.Crd[l] = append(c.Crd[l], checked.Int32(src.Crds[a][p]))
			if l+1 < lv {
				// A new node at level l opens a new fiber at level l+1:
				// record its start (the current length of Crd[l+1]).
				c.Seg[l+1] = append(c.Seg[l+1], checked.Int32(len(c.Crd[l+1])))
			}
		}
	}
	// Close every level's final fiber: Seg[l][i] holds the start of the
	// fiber under parent i; append the overall end as the last boundary.
	for l := 0; l < lv; l++ {
		c.Seg[l] = append(c.Seg[l], checked.Int32(len(c.Crd[l])))
	}
	return c
}

// ToCOO converts the CSF back to a COO tensor in original axis order.
func (c *CSF) ToCOO() *tensor.COO {
	lv := c.Levels()
	dims := make([]int, lv)
	for l, a := range c.Order {
		dims[a] = c.Dims[l]
	}
	out := tensor.New(dims...)
	path := make([]int32, lv)
	coord := make([]int, lv)
	var walk func(level int, node int)
	walk = func(level, node int) {
		start, end := c.Seg[level][node], c.Seg[level][node+1]
		for p := start; p < end; p++ {
			path[level] = c.Crd[level][p]
			if level == lv-1 {
				for l, a := range c.Order {
					coord[a] = int(path[l])
				}
				out.Append(coord, c.Vals[p])
			} else {
				walk(level+1, int(p))
			}
		}
	}
	if c.NNZ() > 0 {
		walk(0, 0)
	}
	return out
}

// Children returns the [start,end) range into Crd[level] of the fiber
// under parent node index at level-1 (for level 0, pass node 0).
func (c *CSF) Children(level, node int) (int, int) {
	return int(c.Seg[level][node]), int(c.Seg[level][node+1])
}

// SubtreeNNZ returns the number of leaf values under node p at the given
// level. Thanks to the trie layout this is a constant-time position
// difference at the leaf level once the node's leaf span is known; here we
// compute it by walking the segment arrays level by level (O(levels)).
func (c *CSF) SubtreeNNZ(level, node int) int {
	lo, hi := node, node+1
	for l := level + 1; l < c.Levels(); l++ {
		lo = int(c.Seg[l][lo])
		hi = int(c.Seg[l][hi])
	}
	// lo/hi now index Crd[last] == Vals.
	if level == c.Levels()-1 {
		return 1
	}
	return hi - lo
}

// Walk invokes fn for every node in depth-first order with its level,
// node position (index into Crd[level]) and coordinate. Returning false
// from fn prunes the subtree.
func (c *CSF) Walk(fn func(level, pos int, coord int32) bool) {
	var rec func(level, node int)
	rec = func(level, node int) {
		start, end := c.Children(level, node)
		for p := start; p < end; p++ {
			if !fn(level, p, c.Crd[level][p]) {
				continue
			}
			if level+1 < c.Levels() {
				rec(level+1, p)
			}
		}
	}
	if c.NNZ() > 0 {
		rec(0, 0)
	}
}
