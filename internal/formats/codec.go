package formats

import (
	"fmt"

	"d2t2/internal/wire"
)

// Code walks the CSF's snapshot layout with w — sizing, appending or
// reading it by w's mode: the level count, Dims, Order, each level's
// segment and coordinate arrays, then the values. The encoding is
// canonical: encoding a read CSF reproduces the input bytes exactly.
// Reading validates the trie invariants, so a read CSF is safe to
// traverse even when the input is corrupted or adversarial.
func (c *CSF) Code(w *wire.Coder) {
	lv := uint8(c.Levels())
	w.U8(&lv)
	if lv < 1 || lv > wire.MaxOrder {
		w.Fail(fmt.Errorf("formats: CSF has %d levels, want 1..%d", lv, wire.MaxOrder))
		return
	}
	w.Ints(&c.Dims)
	w.Ints(&c.Order)
	if w.Reading() {
		c.Seg, c.Crd = make([][]int32, lv), make([][]int32, lv)
	}
	for l := range c.Seg {
		w.I32s(&c.Seg[l])
		w.I32s(&c.Crd[l])
	}
	w.F64s(&c.Vals)
	if !w.Reading() || w.Err() != nil {
		return
	}
	if len(c.Dims) != int(lv) || len(c.Order) != int(lv) {
		w.Fail(fmt.Errorf("formats: decoded CSF arity mismatch: %d levels, %d dims, %d order",
			lv, len(c.Dims), len(c.Order)))
		return
	}
	w.Fail(c.Validate())
}

// Validate checks the CSF trie invariants: Order is a permutation of the
// axes, segment arrays bound coordinate arrays level by level, fibers
// hold strictly increasing in-range coordinates, and the value count
// matches the leaf level. Builders establish these by construction; the
// snapshot decoder re-establishes them for untrusted input.
func (c *CSF) Validate() error {
	lv := c.Levels()
	if len(c.Order) != lv || len(c.Seg) != lv || len(c.Crd) != lv {
		return fmt.Errorf("formats: CSF arity mismatch across Dims/Order/Seg/Crd")
	}
	seen := make([]bool, lv)
	for _, a := range c.Order {
		if a < 0 || a >= lv || seen[a] {
			return fmt.Errorf("formats: CSF order %v is not a permutation of 0..%d", c.Order, lv-1)
		}
		seen[a] = true
	}
	for l, d := range c.Dims {
		if d < 1 {
			return fmt.Errorf("formats: CSF dimension %d at level %d", d, l)
		}
	}
	if len(c.Vals) == 0 {
		for l := 0; l < lv; l++ {
			if len(c.Crd[l]) != 0 || len(c.Seg[l]) != 1 || c.Seg[l][0] != 0 {
				return fmt.Errorf("formats: empty CSF has non-canonical level %d", l)
			}
		}
		return nil
	}
	for l := 0; l < lv; l++ {
		wantSeg := 2
		if l > 0 {
			wantSeg = len(c.Crd[l-1]) + 1
		}
		if len(c.Seg[l]) != wantSeg {
			return fmt.Errorf("formats: level %d has %d segment bounds, want %d", l, len(c.Seg[l]), wantSeg)
		}
		if c.Seg[l][0] != 0 || int(c.Seg[l][wantSeg-1]) != len(c.Crd[l]) {
			return fmt.Errorf("formats: level %d segment bounds do not span the coordinate array", l)
		}
		for i := 1; i < wantSeg; i++ {
			if c.Seg[l][i] < c.Seg[l][i-1] {
				return fmt.Errorf("formats: level %d segment bounds decrease at %d", l, i)
			}
		}
		// Coordinates within each fiber are strictly increasing and in
		// range — the sortedness every traversal assumes.
		dim := c.Dims[l]
		for f := 0; f+1 < wantSeg; f++ {
			lo, hi := int(c.Seg[l][f]), int(c.Seg[l][f+1])
			for p := lo; p < hi; p++ {
				crd := c.Crd[l][p]
				if crd < 0 || int(crd) >= dim {
					return fmt.Errorf("formats: level %d coordinate %d out of range [0,%d)", l, crd, dim)
				}
				if p > lo && crd <= c.Crd[l][p-1] {
					return fmt.Errorf("formats: level %d fiber %d not strictly increasing at %d", l, f, p)
				}
			}
		}
	}
	if len(c.Vals) != len(c.Crd[lv-1]) {
		return fmt.Errorf("formats: %d values for %d leaf coordinates", len(c.Vals), len(c.Crd[lv-1]))
	}
	return nil
}
