package stats

import (
	"context"

	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// ShapeMemoCap exposes the shape memo's bound to the external tests.
const ShapeMemoCap = shapeMemoCap

// ShapeMemoLen reports how many shapes s's memo holds.
func ShapeMemoLen(s *Stats) int { return s.shapes.Len() }

// EvalShapeRuns reports how many shape evaluations s's memo ran, and
// ProjectRuns how many projections sh's did (memo hits excluded).
func EvalShapeRuns(s *Stats) int64     { return s.shapes.Runs() }
func ProjectRuns(sh *ShapeStats) int64 { return sh.projs.Runs() }

// CollectDirect runs the direct reducer (oracle_test.go), the reference
// the accumulator path's Finalize is checked against.
func CollectDirect(t *tensor.COO, tt *tiling.TiledTensor, opts *Options) (*Stats, error) {
	return collectDirect(context.Background(), t, tt, opts)
}
