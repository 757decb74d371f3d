package experiments

import (
	"context"
	"fmt"

	"d2t2/internal/einsum"
	"d2t2/internal/optimizer"
)

// Fig9 reproduces the ablation of §6.7/Figure 9: D2T2's tiling quality
// when sub-setting the collected statistics —
//
//	full        traffic prediction with correlations (the D2T2 default)
//	no-corrs    prediction without the Corrs output-reuse discount
//	corrs-only  tile shape picked by the ΣCorrs threshold alone
//
// Rows report measured traffic of each ablated scheme relative to full
// D2T2 (1.0 = identical; >1 means the simpler scheme moves more data).
// The paper finds simpler schemes are sometimes up to 10% better but
// drop to 69% of D2T2's efficiency in the worst case.
func Fig9(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	tbl := &Table{
		ID:      "fig9",
		Title:   "Ablation: traffic relative to prediction-with-correlations (Fig. 9)",
		Headers: []string{"Matrix", "NoCorrs", "CorrsOnly"},
	}
	var worstNo, worstCo float64 = 1, 1
	var bestNo, bestCo float64 = 1, 1
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		run := func(o optimizer.Options) (float64, error) {
			o.BufferWords = s.BufferWords()
			res, err := optimizer.OptimizeCtx(ctx, e, inputs, o)
			if err != nil {
				return 0, err
			}
			m, err := measureConfig(ctx, s, e, inputs, res.Config, nil)
			if err != nil {
				return 0, err
			}
			return float64(m.Total()), nil
		}
		full, err := run(optimizer.Options{})
		if err != nil {
			return nil, err
		}
		noCorr, err := run(optimizer.Options{DisableCorrs: true})
		if err != nil {
			return nil, err
		}
		corrOnly, err := run(optimizer.Options{CorrsOnly: true})
		if err != nil {
			return nil, err
		}
		rn, rc := noCorr/full, corrOnly/full
		if rn > worstNo {
			worstNo = rn
		}
		if rc > worstCo {
			worstCo = rc
		}
		if rn < bestNo {
			bestNo = rn
		}
		if rc < bestCo {
			bestCo = rc
		}
		tbl.Append(label, rn, rc)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"no-corrs best/worst %.2f/%.2f, corrs-only best/worst %.2f/%.2f (paper: simpler schemes up to 10%% better, worst 1/0.69=1.45x worse)",
		bestNo, worstNo, bestCo, worstCo))
	return tbl, nil
}
