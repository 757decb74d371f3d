package stats

import (
	"fmt"
	"math"
	"slices"

	"d2t2/internal/tiling"
	"d2t2/internal/wire"
)

// Code walks the bundle's STAT layout with c — sizing, appending or
// reading it by c's mode — so this one function is the snapshot codec's
// sizer, encoder and decoder for statistics, unexported fields included.
// Corrs is written in ascending axis order, so the encoding is canonical.
// Reading validates the cross-field invariants every consumer assumes
// (see check), so a read bundle is safe to hand to the model and
// optimizer without re-deriving anything.
func (s *Stats) Code(c *wire.Coder) {
	c.Ints(&s.Dims)
	c.Ints(&s.BaseTileDims)
	c.Ints(&s.Order)
	c.Int(&s.NNZ)
	c.F64(&s.SizeTile)
	c.Int(&s.MaxTile)
	c.Int(&s.NumTiles)
	c.F64s(&s.PrTileIdx)
	c.F64s(&s.ProbIndex)
	if len(s.Dims) > wire.MaxOrder {
		c.Fail(fmt.Errorf("stats: order %d exceeds %d", len(s.Dims), wire.MaxOrder))
		return
	}
	s.codeCorrs(c)
	wire.List(c, &s.TileCorrs)
	if c.Has(s.ElemCounts != nil) {
		wire.List(c, &s.ElemCounts)
	}
	if c.Has(s.PairSketch != nil) {
		wire.List(c, &s.PairSketch)
	}
	wire.List(c, &s.occupancy)
	if c.Has(s.micro != nil) {
		if c.Reading() {
			s.micro = new(microSummary)
		}
		m := s.micro
		c.Ints(&m.dims)
		c.Ints(&m.microDims)
		c.Ints(&m.outerDims)
		c.U64s(&m.keys)
		c.I32s(&m.nnz)
		c.I32s(&m.footprint)
		c.F64(&m.fpScale)
	}
	if c.Reading() && c.Err() == nil {
		c.Fail(s.check())
	}
}

// codeCorrs walks Corrs as a count of axes, then each axis ascending
// with its curve. Reading demands strictly ascending axes: a stream in
// any other order would decode to bytes it is not.
func (s *Stats) codeCorrs(c *wire.Coder) {
	n := c.Len(len(s.Corrs), wire.MaxOrder)
	if !c.Reading() {
		var buf [wire.MaxOrder]int
		axes := buf[:0]
		for ax := range s.Corrs {
			axes = append(axes, ax)
		}
		slices.Sort(axes)
		for _, ax := range axes {
			curve := s.Corrs[ax]
			c.Int(&ax)
			c.F64s(&curve)
		}
		return
	}
	s.Corrs = make(map[int][]float64, n)
	var prev int
	for i := 0; i < n && c.Err() == nil; i++ {
		var ax int
		var curve []float64
		c.Int(&ax)
		c.F64s(&curve)
		if i > 0 && ax <= prev {
			c.Fail(fmt.Errorf("stats: corr axis %d after axis %d", ax, prev))
		}
		s.Corrs[ax], prev = curve, ax
	}
}

// check validates a read bundle: positive dimensions and base tile
// dimensions within the tiler's bounds, an Order that permutes the axes, per-level and per-axis
// tables of the tensor's order, and a micro summary — every collection
// keeps one, and the exact model snaps to it — whose columns agree. It
// then sums the micro summary's totals.
func (s *Stats) check() error {
	n := len(s.Dims)
	if n == 0 {
		return fmt.Errorf("stats: bundle has no dimensions")
	}
	if len(s.BaseTileDims) != n || len(s.Order) != n {
		return fmt.Errorf("stats: arity mismatch: %d dims, %d base tile dims, %d order",
			n, len(s.BaseTileDims), len(s.Order))
	}
	seen := make([]bool, n)
	for a, ax := range s.Order {
		if ax < 0 || ax >= n || seen[ax] {
			return fmt.Errorf("stats: order %v is not a permutation of 0..%d", s.Order, n-1)
		}
		seen[ax] = true
		// The tiler's bounds, as Partial.Validate applies them: the
		// analytic model divides by a tile dimension clamped to the
		// axis and walks up to the base grid's extent.
		d, td := s.Dims[a], s.BaseTileDims[a]
		if d < 1 || d > math.MaxInt32 || td < 1 || td > math.MaxInt32 {
			return fmt.Errorf("stats: dimension %d / base tile dimension %d on axis %d", d, td, a)
		}
		if g := (d + td - 1) / td; g > tiling.MaxAxisTiles {
			return fmt.Errorf("stats: axis %d: %d-tile grid past the %d-tile axis cap", a, g, tiling.MaxAxisTiles)
		}
	}
	if len(s.PrTileIdx) != n || len(s.ProbIndex) != n || len(s.TileCorrs) != n || len(s.occupancy) != n {
		return fmt.Errorf("stats: per-level tables do not match order %d", n)
	}
	for ax := range s.Corrs {
		if ax < 0 || ax >= n {
			return fmt.Errorf("stats: corr axis %d out of range", ax)
		}
	}
	if s.ElemCounts != nil && len(s.ElemCounts) != n {
		return fmt.Errorf("stats: ElemCounts arity %d != %d", len(s.ElemCounts), n)
	}
	if s.PairSketch != nil && len(s.PairSketch) != n {
		return fmt.Errorf("stats: PairSketch arity %d != %d", len(s.PairSketch), n)
	}
	m := s.micro
	if m == nil {
		return fmt.Errorf("stats: bundle has no micro summary")
	}
	if len(m.dims) != n || len(m.microDims) != n || len(m.outerDims) != n {
		return fmt.Errorf("stats: micro summary arity mismatch")
	}
	if len(m.nnz) != len(m.keys) || len(m.footprint) != len(m.keys) {
		return fmt.Errorf("stats: micro summary has %d keys, %d nnz, %d footprints",
			len(m.keys), len(m.nnz), len(m.footprint))
	}
	for a, d := range m.microDims {
		if d < 1 {
			return fmt.Errorf("stats: micro dimension %d on axis %d", d, a)
		}
	}
	m.withTotals()
	return nil
}

// Code walks the accumulator's PART layout with c — sizing, appending or
// reading it by c's mode. CorrOff and CorrRest share one count, each
// accumulator's pair in turn. Reading validates the result (Validate),
// so a read partial is safe to Merge and Finalize.
func (p *Partial) Code(c *wire.Coder) {
	c.Ints(&p.Dims)
	c.Ints(&p.TileDims)
	c.Ints(&p.Order)
	c.Ints(&p.MicroDims)
	c.Ints(&p.CorrAxes)
	c.Ints(&p.CorrMaxShift)
	c.Int(&p.CorrSampleTarget)
	c.Int(&p.TileCorrMaxShift)
	c.Bool(&p.SkipExtensions)
	c.Int(&p.NNZ)
	if len(p.Dims) > wire.MaxOrder {
		c.Fail(fmt.Errorf("stats: partial order %d exceeds %d", len(p.Dims), wire.MaxOrder))
		return
	}
	if c.Has(p.ElemCounts != nil) {
		wire.List(c, &p.ElemCounts)
	}
	if c.Has(p.Sketches != nil) {
		wire.List(c, &p.Sketches)
	}
	n := c.Len(len(p.CorrOff), wire.MaxOrder)
	if c.Reading() {
		p.CorrOff, p.CorrRest = make([][]int32, n), make([][]uint64, n)
	}
	for i := range p.CorrOff {
		c.I32s(&p.CorrOff[i])
		c.U64s(&p.CorrRest[i])
	}
	c.U64s(&p.TileKeys)
	c.I32s(&p.TileNNZ)
	c.I32s(&p.TileFP)
	wire.List(c, &p.TileFibers)
	c.U64s(&p.MicroKeys)
	c.I32s(&p.MicroNNZ)
	c.I32s(&p.MicroFP)
	if c.Reading() && c.Err() == nil {
		c.Fail(p.Validate())
	}
}
