package stats

import "fmt"

// Portable is the fully-exported flattened view of Stats, including the
// unexported occupancy map and micro-tile summary. It exists for codecs:
// the snapshot package serializes a Portable and reconstructs the Stats
// with FromPortable. The view aliases the Stats' backing arrays — it is
// a read-only window, not a deep copy.
type Portable struct {
	Dims         []int
	BaseTileDims []int
	Order        []int
	NNZ          int

	SizeTile float64
	MaxTile  int
	NumTiles int

	PrTileIdx []float64
	ProbIndex []float64

	Corrs     map[int][]float64
	TileCorrs [][]float64

	ElemCounts [][]int32
	PairSketch [][]uint64

	Occupancy [][]bool
	Micro     *PortableMicro
}

// PortableMicro is the exported view of the micro-tile occupancy summary.
type PortableMicro struct {
	Dims      []int
	MicroDims []int
	OuterDims []int
	Keys      []uint64
	NNZ       []int32
	Footprint []int32
	FPScale   float64
}

// Portable returns the codec view of the statistics bundle.
func (s *Stats) Portable() *Portable {
	p := &Portable{
		Dims:         s.Dims,
		BaseTileDims: s.BaseTileDims,
		Order:        s.Order,
		NNZ:          s.NNZ,
		SizeTile:     s.SizeTile,
		MaxTile:      s.MaxTile,
		NumTiles:     s.NumTiles,
		PrTileIdx:    s.PrTileIdx,
		ProbIndex:    s.ProbIndex,
		Corrs:        s.Corrs,
		TileCorrs:    s.TileCorrs,
		ElemCounts:   s.ElemCounts,
		PairSketch:   s.PairSketch,
		Occupancy:    s.occupancy,
	}
	if s.micro != nil {
		p.Micro = &PortableMicro{
			Dims:      s.micro.dims,
			MicroDims: s.micro.microDims,
			OuterDims: s.micro.outerDims,
			Keys:      s.micro.keys,
			NNZ:       s.micro.nnz,
			Footprint: s.micro.footprint,
			FPScale:   s.micro.fpScale,
		}
	}
	return p
}

// FromPortable reconstructs a Stats from its codec view, validating the
// cross-field arities every consumer assumes, so a decoded bundle is
// safe to hand to the model and optimizer without re-deriving anything.
func FromPortable(p *Portable) (*Stats, error) {
	n := len(p.Dims)
	if n == 0 {
		return nil, fmt.Errorf("stats: portable bundle has no dimensions")
	}
	if len(p.BaseTileDims) != n || len(p.Order) != n {
		return nil, fmt.Errorf("stats: portable arity mismatch: %d dims, %d base tile dims, %d order",
			n, len(p.BaseTileDims), len(p.Order))
	}
	seen := make([]bool, n)
	for _, a := range p.Order {
		if a < 0 || a >= n || seen[a] {
			return nil, fmt.Errorf("stats: portable order %v is not a permutation of 0..%d", p.Order, n-1)
		}
		seen[a] = true
	}
	if len(p.PrTileIdx) != n || len(p.ProbIndex) != n || len(p.TileCorrs) != n || len(p.Occupancy) != n {
		return nil, fmt.Errorf("stats: portable per-level tables do not match order %d", n)
	}
	for ax := range p.Corrs {
		if ax < 0 || ax >= n {
			return nil, fmt.Errorf("stats: portable corr axis %d out of range", ax)
		}
	}
	if p.ElemCounts != nil && len(p.ElemCounts) != n {
		return nil, fmt.Errorf("stats: portable ElemCounts arity %d != %d", len(p.ElemCounts), n)
	}
	if p.PairSketch != nil && len(p.PairSketch) != n {
		return nil, fmt.Errorf("stats: portable PairSketch arity %d != %d", len(p.PairSketch), n)
	}
	s := &Stats{
		Dims:         p.Dims,
		BaseTileDims: p.BaseTileDims,
		Order:        p.Order,
		NNZ:          p.NNZ,
		SizeTile:     p.SizeTile,
		MaxTile:      p.MaxTile,
		NumTiles:     p.NumTiles,
		PrTileIdx:    p.PrTileIdx,
		ProbIndex:    p.ProbIndex,
		Corrs:        p.Corrs,
		TileCorrs:    p.TileCorrs,
		ElemCounts:   p.ElemCounts,
		PairSketch:   p.PairSketch,
		occupancy:    p.Occupancy,
	}
	if s.Corrs == nil {
		s.Corrs = make(map[int][]float64)
	}
	if m := p.Micro; m != nil {
		if len(m.Dims) != n || len(m.MicroDims) != n || len(m.OuterDims) != n {
			return nil, fmt.Errorf("stats: portable micro summary arity mismatch")
		}
		if len(m.NNZ) != len(m.Keys) || len(m.Footprint) != len(m.Keys) {
			return nil, fmt.Errorf("stats: portable micro summary has %d keys, %d nnz, %d footprints",
				len(m.Keys), len(m.NNZ), len(m.Footprint))
		}
		for a := 0; a < n; a++ {
			if m.MicroDims[a] < 1 {
				return nil, fmt.Errorf("stats: portable micro dimension %d on axis %d", m.MicroDims[a], a)
			}
		}
		s.micro = (&microSummary{
			dims:      m.Dims,
			microDims: m.MicroDims,
			outerDims: m.OuterDims,
			keys:      m.Keys,
			nnz:       m.NNZ,
			footprint: m.Footprint,
			fpScale:   m.FPScale,
		}).withTotals()
	}
	return s, nil
}
