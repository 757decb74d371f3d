package d2t2

import (
	"context"

	"d2t2/internal/stats"
)

// StatsSummary exposes the Tile Statistics Collector's outputs for one
// tensor at a conservative square tiling (paper §4.3–4.4).
type StatsSummary struct {
	// SizeTile is the mean tile footprint in words; MaxTile the maximum;
	// NumTiles the non-empty tile count.
	SizeTile float64
	MaxTile  int
	NumTiles int
	// PrTileIdx are the per-outer-level conditional occupancy
	// probabilities; ProbIndex the per-inner-level fiber densities.
	PrTileIdx []float64
	ProbIndex []float64
	// CorrSums holds, per axis, the sum of the Corrs shift-correlation
	// over one tile — the output-reuse proxy thresholded in Fig. 8.
	CorrSums []float64
}

// CollectStats tiles the tensor with square tiles of the given dimension
// (clamped per axis to the tensor) and returns the collected statistics:
// Session.StatsCtx on a fresh session.
func CollectStats(ctx context.Context, t *Tensor, tile int) (*StatsSummary, error) {
	return NewSession(nil).StatsCtx(ctx, t, tile)
}

// summarize flattens collected statistics into the public summary.
func summarize(s *stats.Stats, dims []int) *StatsSummary {
	out := &StatsSummary{
		SizeTile:  s.SizeTile,
		MaxTile:   s.MaxTile,
		NumTiles:  s.NumTiles,
		PrTileIdx: append([]float64(nil), s.PrTileIdx...),
		ProbIndex: append([]float64(nil), s.ProbIndex...),
	}
	for a := range dims {
		out.CorrSums = append(out.CorrSums, s.CorrSum(a, dims[a]))
	}
	return out
}

// PredictConfig runs the probabilistic traffic model for one tile
// configuration and returns the predicted total traffic in megabytes:
// Session.PredictCtx on a fresh session. Statistics are collected at a
// conservative square tiling of dimension statsTile.
func PredictConfig(ctx context.Context, k *Kernel, inputs Inputs, cfg TileConfig, statsTile int) (float64, error) {
	return NewSession(nil).PredictCtx(ctx, k, inputs, cfg, statsTile)
}

type missingError string

func (e missingError) Error() string { return "d2t2: missing input tensor " + string(e) }

func errMissing(name string) error { return missingError(name) }
