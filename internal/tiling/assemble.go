package tiling

import (
	"fmt"

	"d2t2/internal/radix"
)

// FromTiles reassembles a TiledTensor from its decoded parts — the
// decode hook the snapshot codec uses. Every derived field (outer grid,
// footprint aggregates, nnz, the outer CSF) is recomputed from the tiles
// rather than trusted from the input, and the result is validated, so a
// reassembled tensor upholds the same invariants as a freshly tiled one.
// Packed super-tiles (PackTiles) are not supported.
func FromTiles(dims, tileDims, order []int, tiles []*Tile) (*TiledTensor, error) {
	n := len(dims)
	if len(tileDims) != n || len(order) != n {
		return nil, fmt.Errorf("tiling: arity mismatch: %d dims, %d tile dims, %d order", n, len(tileDims), len(order))
	}
	if err := checkPermutation(order); err != nil {
		return nil, err
	}
	tt := &TiledTensor{
		Dims:      append([]int(nil), dims...),
		TileDims:  append([]int(nil), tileDims...),
		OuterDims: make([]int, n),
		Order:     append([]int(nil), order...),
		Tiles:     make(map[uint64]*Tile, len(tiles)),
	}
	for a := 0; a < n; a++ {
		if dims[a] < 1 || tileDims[a] < 1 {
			return nil, fmt.Errorf("tiling: dimension %d / tile dimension %d on axis %d", dims[a], tileDims[a], a)
		}
		tt.OuterDims[a] = (dims[a] + tileDims[a] - 1) / tileDims[a]
		if tt.OuterDims[a] > MaxAxisTiles {
			return nil, fmt.Errorf("tiling: axis %d has %d tiles, past the %d-tile axis cap", a, tt.OuterDims[a], MaxAxisTiles)
		}
	}
	var err error
	if tt.grid, err = radix.NewCodec(tt.OuterDims); err != nil {
		return nil, err
	}
	for _, tile := range tiles {
		if tile == nil || tile.Members != nil || tile.CSF == nil {
			return nil, fmt.Errorf("tiling: FromTiles requires plain tiles with inner CSFs")
		}
		k, ok := tt.grid.Encode(tile.Outer)
		if !ok {
			return nil, fmt.Errorf("tiling: tile outer %v outside the %v grid", tile.Outer, tt.OuterDims)
		}
		if _, dup := tt.Tiles[k]; dup {
			return nil, fmt.Errorf("tiling: duplicate tile at %v", tile.Outer)
		}
		tile.Footprint = tile.CSF.FootprintWords()
		tt.Tiles[k] = tile
		tt.TotalFootprint += tile.Footprint
		if tile.Footprint > tt.MaxFootprint {
			tt.MaxFootprint = tile.Footprint
		}
		tt.NNZ += tile.NNZ()
	}
	tt.buildOuterCSF()
	if err := tt.Validate(); err != nil {
		return nil, err
	}
	return tt, nil
}
