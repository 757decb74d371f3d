package experiments

import (
	"context"
	"math"

	"d2t2/internal/einsum"
	"d2t2/internal/model"
	"d2t2/internal/stats"
)

// Fig8 reproduces the shape heuristic of Figure 8: per matrix, the sum
// of the Corrs statistic over one base tile of the contracted index,
// against the measured-best tile shape (outer-product-like vs square).
// The paper finds matrices with ΣCorrs < 1.6 favor outer-product tiling
// while the rest prefer square tiles for output reuse.
func Fig8(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	tbl := &Table{
		ID:      "fig8",
		Title:   "Desired tile shape vs sum of correlations (Fig. 8)",
		Headers: []string{"Matrix", "SumCorrs", "BestRF", "Shape", "HeuristicAgrees"},
	}
	agree := 0
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		// Corrs of B along its contracted axis k (axis 0 of B(k,j)).
		base := []int{s.TileSide, s.TileSide}
		stB, _, err := stats.CollectCtx(ctx, inputs["B"], base, []int{0, 1}, &stats.Options{MicroDiv: 1})
		if err != nil {
			return nil, err
		}
		sum := stB.CorrSum(0, s.TileSide)

		// Measured-best RF over the sweep.
		bestRF, bestTotal := 1, math.Inf(1)
		for _, rf := range []int{1, 2, 4, 8} {
			k := s.TileSide / rf
			cfg := model.Config{"i": s.TileSide * rf, "k": k, "j": s.TileSide * rf}
			res, err := measureConfig(ctx, s, e, inputs, cfg, nil)
			if err != nil {
				return nil, err
			}
			if float64(res.Total()) < bestTotal {
				bestRF, bestTotal = rf, float64(res.Total())
			}
		}
		shape := "square-ish"
		if bestRF >= 4 {
			shape = "outer-product"
		}
		heuristic := (sum < 1.6) == (bestRF >= 4)
		if heuristic {
			agree++
		}
		tbl.Append(label, sum, bestRF, shape, heuristic)
	}
	tbl.Notes = append(tbl.Notes,
		"paper: matrices with sum < 1.6 favor outer-product tiles; others prefer square")
	_ = agree
	return tbl, nil
}
