package experiments

import (
	"context"
	"fmt"

	"d2t2/internal/einsum"
	"d2t2/internal/optimizer"
)

// ExtRefine ablates this implementation's extension beyond the paper:
// the exact cross-operand input-traffic refinement (model/refine.go).
// Without it, the model is the paper's pure mean-field estimator, which
// underestimates correlated A×Aᵀ traffic (§5.3) and can mislead the
// shape choice. Rows report the measured traffic of the optimizer's
// choice without refinement relative to its choice with refinement
// (>1 means the refinement found a better configuration).
func ExtRefine(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	tbl := &Table{
		ID:      "ext-refine",
		Title:   "Extension ablation: exact cross-operand refinement (DESIGN.md §7)",
		Headers: []string{"Matrix", "NoRefineVsRefine"},
	}
	var ratios []float64
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		run := func(disable bool) (float64, error) {
			res, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{
				BufferWords:       s.BufferWords(),
				DisableRefinement: disable,
			})
			if err != nil {
				return 0, err
			}
			m, err := measureConfig(ctx, s, e, inputs, res.Config, nil)
			if err != nil {
				return 0, err
			}
			return float64(m.Total()), nil
		}
		with, err := run(false)
		if err != nil {
			return nil, err
		}
		without, err := run(true)
		if err != nil {
			return nil, err
		}
		r := without / with
		ratios = append(ratios, r)
		tbl.Append(label, r)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"mean no-refine/refine traffic ratio %.2fx (1.0 = refinement changes nothing)", mean(ratios)))
	return tbl, nil
}
