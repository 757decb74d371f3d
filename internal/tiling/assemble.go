package tiling

import "fmt"

// FromTiles reassembles a TiledTensor from its decoded parts — the
// decode hook the snapshot codec uses. Every derived field (outer grid,
// footprint aggregates, nnz, the outer CSF) is recomputed from the tiles
// rather than trusted from the input, and the result is validated, so a
// reassembled tensor upholds the same invariants as a freshly tiled one.
// Packed super-tiles (PackTiles) are not supported.
func FromTiles(dims, tileDims, order []int, tiles []*Tile) (*TiledTensor, error) {
	n := len(dims)
	if n > MaxOrder {
		return nil, fmt.Errorf("tiling: order-%d tensor exceeds the order-%d limit of %d-bit tile keys", n, MaxOrder, keyShift)
	}
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
		if tt.OuterDims[a] > 1<<keyShift {
			return nil, fmt.Errorf("tiling: axis %d produces too many tiles", a)
		}
	}
	for _, tile := range tiles {
		if tile == nil || tile.Members != nil || tile.CSF == nil {
			return nil, fmt.Errorf("tiling: FromTiles requires plain tiles with inner CSFs")
		}
		if len(tile.Outer) != n {
			return nil, fmt.Errorf("tiling: tile outer arity %d != %d", len(tile.Outer), n)
		}
		k := Key(tile.Outer)
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
