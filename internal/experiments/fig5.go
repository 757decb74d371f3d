package experiments

import (
	"context"
	"fmt"
	"math"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
)

// Fig5 reproduces the model validation of §5.3 (Figures 5a–5d): for
// SpMSpM-ikj across reorder factors, compare predicted and measured
// traffic for three correlation regimes —
//
//	A×Aᵀ    fully correlated operands (the paper's outlier regime,
//	        where independence makes the model underestimate),
//	A×R     uncorrelated (R random; paper reports 2.9–9.7% mean error),
//	A×A'ᵀ   partially correlated (A' row-shifted).
//
// Rows report per-matrix, per-case mean and worst relative error over
// the RF sweep, and whether the predicted-best RF is measured-optimal
// within 40% (the relative-comparison property D2T2 relies on).
func Fig5(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	tbl := &Table{
		ID:    "fig5",
		Title: "Model validation: predicted vs measured traffic across RF (Fig. 5)",
		Headers: []string{"Matrix", "Case", "MeanErr%", "MaxErr%", "AnalyticErr%", "PredBestRF",
			"MeasBestRF", "RankOK"},
	}

	rfs := []int{1, 2, 4, 8}
	for _, label := range s.MatrixLabels() {
		a, err := s.Matrix(label)
		if err != nil {
			return nil, err
		}
		cases := []struct {
			name string
			b    *tensor.COO
		}{
			{"AxAt", a.Transpose()},
			{"AxR", randomLike(a, label)},
			{"AxA't", gen.ShiftRows(a, s.TileSide/2).Transpose()},
		}
		for _, c := range cases {
			inputs := map[string]*tensor.COO{"A": a, "B": c.b}
			pred, err := validationPredictor(ctx, e, inputs, s.TileSide)
			if err != nil {
				return nil, err
			}
			var errs, aerrs []float64
			var totals []struct{ p, m float64 }
			for _, rf := range rfs {
				cfg := pred.SnapConfig(model.Config{
					"i": s.TileSide * rf, "k": s.TileSide / rf, "j": s.TileSide * rf,
				})
				p, err := pred.Predict(cfg)
				if err != nil {
					return nil, err
				}
				// The paper-faithful mean-field prediction for comparison.
				pred.Mode = model.ModeAnalytic
				pa, err := pred.Predict(cfg)
				pred.Mode = model.ModeExact
				if err != nil {
					return nil, err
				}
				m, err := measureConfig(ctx, s, e, inputs, cfg, nil)
				if err != nil {
					return nil, err
				}
				rel := math.Abs(p.Total()-float64(m.Total())) / float64(m.Total()) * 100
				errs = append(errs, rel)
				aerrs = append(aerrs, math.Abs(pa.Total()-float64(m.Total()))/float64(m.Total())*100)
				totals = append(totals, struct{ p, m float64 }{p.Total(), float64(m.Total())})
			}
			maxErr := 0.0
			for _, v := range errs {
				if v > maxErr {
					maxErr = v
				}
			}
			bp, bm := 0, 0
			for i, t := range totals {
				if t.p < totals[bp].p {
					bp = i
				}
				if t.m < totals[bm].m {
					bm = i
				}
			}
			rankOK := totals[bp].m <= 1.4*totals[bm].m
			tbl.Append(label, c.name, mean(errs), maxErr, mean(aerrs),
				fmt.Sprintf("%d", rfs[bp]), fmt.Sprintf("%d", rfs[bm]), rankOK)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"paper: AxR mean error 2.9-9.7% (worst <18%); AxAt shows systematic underestimates but preserved relative ordering")
	return tbl, nil
}

// validationPredictor collects stats and builds the traffic model for a
// two-operand kernel.
func validationPredictor(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, tileSide int) (*model.Predictor, error) {
	st := make(map[string]*stats.Stats)
	for _, ref := range e.Inputs() {
		base := make([]int, len(ref.Indices))
		for a := range base {
			base[a] = tileSide
		}
		s, _, err := stats.CollectCtx(ctx, inputs[ref.Name], base, e.LevelOrder(ref), nil)
		if err != nil {
			return nil, err
		}
		st[ref.Name] = s
	}
	return model.New(e, st)
}

// randomLike builds a random matrix with the same shape and nnz as m.
func randomLike(m *tensor.COO, label string) *tensor.COO {
	r := seededRand("fig5-" + label)
	return gen.UniformRandom(r, m.Dims[1], m.Dims[0], m.NNZ())
}
