package tiling

import (
	"fmt"

	"d2t2/internal/radix"
)

// PackTiles implements the paper's §6.7 "packed tiles" scheme: instead of
// retiling the raw data with the optimized configuration, groups of
// already-built base tiles are packed together into super-tiles whose
// logical shape is factors[a]*TileDims[a] per axis. Each packed tile is
// indexed through a small sparse directory, so its footprint is the sum
// of its member footprints plus (order+1) directory words per member.
//
// The returned TiledTensor reuses the member CSFs; only bookkeeping is
// new. This models computing on sets of small tiles without a second
// tiling pass.
func PackTiles(tt *TiledTensor, factors []int) (*TiledTensor, error) {
	n := len(tt.Dims)
	if len(factors) != n {
		return nil, fmt.Errorf("tiling: %d pack factors for order-%d tensor", len(factors), n)
	}
	for a, f := range factors {
		if f < 1 {
			return nil, fmt.Errorf("tiling: pack factor %d on axis %d", f, a)
		}
	}
	out := &TiledTensor{
		Dims:      append([]int(nil), tt.Dims...),
		TileDims:  make([]int, n),
		OuterDims: make([]int, n),
		Order:     append([]int(nil), tt.Order...),
		Tiles:     make(map[uint64]*Tile),
		NNZ:       tt.NNZ,
	}
	out.PackedFrom = append([]int(nil), tt.TileDims...)
	for a := range out.TileDims {
		out.TileDims[a] = tt.TileDims[a] * factors[a]
		out.OuterDims[a] = (tt.Dims[a] + out.TileDims[a] - 1) / out.TileDims[a]
	}
	out.grid, _ = radix.NewCodec(out.OuterDims) // coarser than tt's grid
	for _, tile := range tt.Tiles {
		oc := make([]int, n)
		for a := range oc {
			oc[a] = tile.Outer[a] / factors[a]
		}
		k, _ := out.grid.Encode(oc)
		packed := out.Tiles[k]
		if packed == nil {
			packed = &Tile{Outer: oc}
			out.Tiles[k] = packed
		}
		packed.Members = append(packed.Members, tile)
		packed.Footprint += tile.Footprint + n + 1
	}
	for _, packed := range out.Tiles {
		out.TotalFootprint += packed.Footprint
		if packed.Footprint > out.MaxFootprint {
			out.MaxFootprint = packed.Footprint
		}
	}
	out.buildOuterCSF()
	return out, nil
}
