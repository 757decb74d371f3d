package experiments

import (
	"context"
	"fmt"
	"math"

	"d2t2/internal/accel"
	"d2t2/internal/drt"
	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/optimizer"
	"d2t2/internal/schemes"
	"d2t2/internal/tiling"
)

// Fig6a reproduces the linearity check of Figure 6a: for SpMSpM-ijk with
// the Extensor-like machine, speedup over Prescient is plotted against
// traffic improvement over Prescient; the paper finds the relationship
// linear ("sparse tensor algebra computation is memory-bound"). The
// table reports both metrics per matrix and the Pearson correlation.
func Fig6a(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIJK()
	arch := s.Arch()
	tbl := &Table{
		ID:      "fig6a",
		Title:   "Speedup vs traffic improvement over Prescient, SpMSpM-ijk (Fig. 6a)",
		Headers: []string{"Matrix", "TrafficImp", "Speedup"},
	}
	var xs, ys []float64
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		presCfg, err := schemes.Prescient(ctx, e, inputs, s.BufferWords())
		if err != nil {
			return nil, err
		}
		pres, err := measureConfig(ctx, s, e, inputs, presCfg, nil)
		if err != nil {
			return nil, err
		}
		opt, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{BufferWords: s.BufferWords()})
		if err != nil {
			return nil, err
		}
		d2, err := measureConfig(ctx, s, e, inputs, opt.Config, nil)
		if err != nil {
			return nil, err
		}
		ti := accel.TrafficImprovement(&pres.Traffic, &d2.Traffic)
		sp := accel.Speedup(&pres.Traffic, &d2.Traffic, arch)
		xs = append(xs, ti)
		ys = append(ys, sp)
		tbl.Append(label, ti, sp)
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("Pearson r = %.3f (paper: linear relationship)", pearson(xs, ys)))
	return tbl, nil
}

// Fig6b reproduces the Tailors comparison (Figure 6b): SpMSpM-ijk of
// A×Aᵀ, speedups over Prescient for D2T2 and Tailors (10%% overbooking,
// overflowed tiles pay streaming re-fetch traffic). Paper means: D2T2
// 4.85×, Tailors 1.90× → D2T2 2.54× over Tailors.
func Fig6b(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIJK()
	arch := s.Arch()
	tbl := &Table{
		ID:      "fig6b",
		Title:   "D2T2 and Tailors speedup over Prescient, SpMSpM-ijk (Fig. 6b)",
		Headers: []string{"Matrix", "D2T2", "Tailors", "D2T2/Tailors", "TailorsTile", "Overbook%"},
	}
	var d2s, tls []float64
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		presCfg, err := schemes.Prescient(ctx, e, inputs, s.BufferWords())
		if err != nil {
			return nil, err
		}
		pres, err := measureConfig(ctx, s, e, inputs, presCfg, nil)
		if err != nil {
			return nil, err
		}

		opt, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{BufferWords: s.BufferWords()})
		if err != nil {
			return nil, err
		}
		d2, err := measureConfig(ctx, s, e, inputs, opt.Config, nil)
		if err != nil {
			return nil, err
		}

		tailCfg, info, err := schemes.Tailors(ctx, e, inputs, s.BufferWords(), 0.10)
		if err != nil {
			return nil, err
		}
		tail, err := measureConfig(ctx, s, e, inputs, tailCfg, &exec.Options{
			InputBufferWords: s.BufferWords(),
		})
		if err != nil {
			return nil, err
		}

		spD2 := accel.Speedup(&pres.Traffic, &d2.Traffic, arch)
		spTl := accel.Speedup(&pres.Traffic, &tail.Traffic, arch)
		d2s = append(d2s, spD2)
		tls = append(tls, spTl)
		tbl.Append(label, spD2, spTl, spD2/spTl, info.TileSize, 100*info.OverflowRate)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"means: D2T2 %.2fx, Tailors %.2fx, ratio %.2fx (paper: 4.85x, 1.90x, 2.54x)",
		mean(d2s), mean(tls), mean(d2s)/mean(tls)))
	return tbl, nil
}

// Fig6c reproduces the DRT comparison (Figure 6c): SpMSpM-ikj of A×Aᵀ,
// traffic improvement over Prescient for DRT (dynamic reflexive tiling
// simulator), D2T2 and Conservative. Paper means over Prescient: D2T2
// 1.83×, DRT 1.29× (D2T2/DRT = 1.13× on the DRT-completed subset),
// Conservative 1/2.28 (D2T2 is 4.17× over Conservative).
func Fig6c(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	tbl := &Table{
		ID:      "fig6c",
		Title:   "Traffic improvement over Prescient, SpMSpM-ikj (Fig. 6c)",
		Headers: []string{"Matrix", "D2T2", "DRT", "Conservative"},
	}
	var d2s, drts, cons []float64
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		presCfg, err := schemes.Prescient(ctx, e, inputs, s.BufferWords())
		if err != nil {
			return nil, err
		}
		pres, err := measureConfig(ctx, s, e, inputs, presCfg, nil)
		if err != nil {
			return nil, err
		}

		opt, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{BufferWords: s.BufferWords()})
		if err != nil {
			return nil, err
		}
		d2, err := measureConfig(ctx, s, e, inputs, opt.Config, nil)
		if err != nil {
			return nil, err
		}

		// DRT tiles data twice: a static pass at micro granularity (a
		// quarter of the conservative tile), then hardware aggregation of
		// micro tiles into dynamic tiles that fill the buffer.
		consCfg := schemes.Conservative(e, s.BufferWords())
		micro := consCfg["i"] / 4
		if micro < 1 {
			micro = 1
		}
		ttA, err := tiling.NewCtx(ctx, inputs["A"], []int{micro, micro}, []int{0, 1}, 0)
		if err != nil {
			return nil, err
		}
		ttB, err := tiling.NewCtx(ctx, inputs["B"], []int{micro, micro}, []int{0, 1}, 0)
		if err != nil {
			return nil, err
		}
		drtTr, err := drt.Simulate(ttA, ttB, drt.Options{BufferWords: s.BufferWords()})
		if err != nil {
			return nil, err
		}

		consRes, err := measureConfig(ctx, s, e, inputs, consCfg, nil)
		if err != nil {
			return nil, err
		}

		impD2 := accel.TrafficImprovement(&pres.Traffic, &d2.Traffic)
		impDRT := accel.TrafficImprovement(&pres.Traffic, drtTr)
		impCons := accel.TrafficImprovement(&pres.Traffic, &consRes.Traffic)
		d2s = append(d2s, impD2)
		drts = append(drts, impDRT)
		cons = append(cons, impCons)
		tbl.Append(label, impD2, impDRT, impCons)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"means over Prescient: D2T2 %.2fx, DRT %.2fx, Conservative %.2fx; D2T2/DRT %.2fx (paper: 1.83x, 1.29x, ~0.44x, 1.13x)",
		mean(d2s), mean(drts), mean(cons), mean(d2s)/mean(drts)))
	return tbl, nil
}

// pearson computes the correlation coefficient of two series.
func pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx <= 0 || syy <= 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
