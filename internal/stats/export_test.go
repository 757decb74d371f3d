package stats

import (
	"context"

	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// ShapeMemoCap exposes the shape memo's bound to the external tests.
const ShapeMemoCap = shapeMemoCap

// ShapeMemoLen reports how many shapes s's memo holds.
func ShapeMemoLen(s *Stats) int {
	s.shapeMu.Lock()
	defer s.shapeMu.Unlock()
	return len(s.shapes)
}

// CollectDirect runs the direct reducer (oracle_test.go), the reference
// the accumulator path's Finalize is checked against.
func CollectDirect(t *tensor.COO, tt *tiling.TiledTensor, opts *Options) (*Stats, error) {
	return collectDirect(context.Background(), t, tt, opts)
}
