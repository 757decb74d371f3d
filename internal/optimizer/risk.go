// Risk-aware size optimization (ROADMAP item 5, DESIGN.md §18).
//
// The conservative pipeline sizes every tile for the largest footprint
// the model can construct (Eq. 22's MaxTile), which leaves most of the
// buffer idle on skewed tensors. Under a positive Options.OverflowTarget
// the optimizer instead picks sizes from the tile-footprint distribution
// the model already materializes per candidate shape
// (stats.ShapeStats.GroupFP, memoized per snapped config): the Eq. 22
// seed uses the (1−target) footprint quantile, admission checks the
// predicted per-operand overflow rate against the target, and every
// candidate is costed with overflow-adjusted traffic — the model-side
// mirror of exec's OverflowExtra×(footprint−buffer) per-fetch charge —
// so the sweep's first-strict-minimum rule carries over unchanged. Those
// three parts are the risk-aware sizing rule (sizing, in optimizer.go);
// this file prices overflow, reports it, and runs calibration.
package optimizer

import (
	"context"
	"fmt"
	"math"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
)

// RiskReport summarizes a risk-aware sizing decision. It is attached to
// Result.Risk only when OverflowTarget > 0 or a calibration ran.
type RiskReport struct {
	// OverflowTarget / OverflowExtra echo the effective knobs.
	OverflowTarget float64
	OverflowExtra  float64
	// PercentileTile is the (1−target) footprint quantile (words) that
	// replaced MaxTile in the Eq. 22 seed; 0 when resizing was skipped.
	PercentileTile int
	// PredictedOverflowRate is the modeled probability that a tile fetch
	// overflows the buffer at the final config (the max of the
	// fetch-weighted aggregate and the per-operand tile fractions).
	PredictedOverflowRate float64
	// PredictedOverflowWords is the modeled extra traffic (words) from
	// overflow re-streaming at the final config.
	PredictedOverflowWords float64
	// BufferUtilization is the mean fetched-tile footprint over the
	// buffer capacity at the final config (max across operands) — the
	// quantity overbooking exists to raise.
	BufferUtilization float64
	// Calibration holds the measurement-backend comparison when
	// Options.Calibrate was set.
	Calibration *CalibrationReport
}

// CalibrationReport is the outcome of one calibration run: the chosen
// config executed on the measurement backend and compared against the
// (bias-adjusted) prediction.
type CalibrationReport struct {
	// Class is the workload-class key the residual accumulated under.
	Class string
	// PredictedWords is the overflow-adjusted predicted traffic,
	// including the class bias in effect before this run; MeasuredWords
	// the exec-measured total under the same buffer model.
	PredictedWords float64
	MeasuredWords  float64
	// Residual is |measured − predicted| / measured before the bias
	// update — the quantity repeated calibrated optimizes shrink.
	Residual float64
	// BiasAfter is the class bias after folding in this observation.
	BiasAfter float64
	// PredictedOverflowRate / MeasuredOverflowRate compare the modeled
	// overflow probability against the machine's OverflowFetches over
	// InputFetches.
	PredictedOverflowRate float64
	MeasuredOverflowRate  float64
}

// CalibClass is the workload-class key calibration residuals accumulate
// under: kernels with the same einsum structure and evaluation mode
// share one residual bias.
func CalibClass(e *einsum.Expr, mode model.Mode) string {
	if mode == model.ModeAnalytic {
		return e.String() + "|analytic"
	}
	return e.String()
}

// riskEval is the model-side overflow assessment of one config.
type riskEval struct {
	fetchRate float64 // fetch-weighted predicted overflow probability
	tileRate  float64 // max per-operand fraction of overflowing tiles
	premium   float64 // expected extra words from overflow re-streaming
	util      float64 // max per-operand mean footprint / buffer
}

// evalRisk prices cfg's overflow behavior from the footprint
// distribution: per operand, the fraction of tiles above the buffer and
// their summed excess, scaled to fetches via the predicted traffic
// (fetches ≈ predicted words / mean tile footprint, spread uniformly
// over the operand's distinct tiles). The premium mirrors exec's
// OverflowExtra arithmetic: extra × (footprint − buffer) per
// overflowing fetch. Terms accumulate in the kernel's fixed occurrence
// order, so the result is deterministic.
func evalRisk(pred *model.Predictor, e *einsum.Expr, cfg model.Config, p *model.Prediction, o Options) (riskEval, error) {
	var rk riskEval
	budget := float64(o.BufferWords)
	totalFetches := 0.0
	overFetches := 0.0
	for _, ref := range pred.Inputs() {
		sh, err := pred.EvalRef(ref, cfg)
		if err != nil {
			return riskEval{}, err
		}
		rate, excess := sh.OverflowStats(budget)
		if rate > rk.tileRate {
			rk.tileRate = rate
		}
		if u := sh.SizeTile / budget; u > rk.util {
			rk.util = u
		}
		if sh.SizeTile <= 0 || sh.NumTiles == 0 {
			continue
		}
		fetches := p.Input[ref.Name] / sh.SizeTile
		totalFetches += fetches
		overFetches += rate * fetches
		rk.premium += o.OverflowExtra * excess * (fetches / float64(sh.NumTiles))
	}
	if totalFetches > 0 {
		rk.fetchRate = overFetches / totalFetches
	}
	return rk, nil
}

// report folds this evaluation into a RiskReport with the growth
// seed's percentile footprint (0 when resizing was skipped).
func (rk riskEval) report(o Options, percentileTile int) *RiskReport {
	return &RiskReport{
		OverflowTarget:         o.OverflowTarget,
		OverflowExtra:          o.OverflowExtra,
		PercentileTile:         percentileTile,
		PredictedOverflowRate:  maxF(rk.fetchRate, rk.tileRate),
		PredictedOverflowWords: rk.premium,
		BufferUtilization:      rk.util,
	}
}

// calibrate closes the loop: tile the inputs at the final config, run
// the measurement backend under the same buffer model the candidates
// were costed with, and fold the traffic residual into the calibration
// store (Options.Calibration, or a run-local store when nil).
func (r *Result) calibrate(ctx context.Context, pred *model.Predictor, inputs map[string]*tensor.COO, o Options) error {
	for _, ref := range r.Expr.Inputs() {
		if inputs[ref.Name] == nil {
			return fmt.Errorf("optimizer: calibration requires raw input %q (stats-only precollection cannot be measured)", ref.Name)
		}
	}
	calib := o.Calibration
	if calib == nil {
		calib = model.NewCalibration()
	}
	class := CalibClass(r.Expr, o.Mode)

	rk, err := evalRisk(pred, r.Expr, r.Config, r.Predicted, o)
	if err != nil {
		return err
	}
	// r.Predicted already carries the class bias when Options.Calibration
	// was supplied (the predictor was constructed with it), so the
	// residual below is against the bias-adjusted level.
	predicted := r.Predicted.Total() + rk.premium

	tts, err := TileAllCtx(ctx, r.Expr, inputs, r.Config, o.Workers)
	if err != nil {
		return err
	}
	eo := &exec.Options{Workers: o.Workers}
	if o.OverflowTarget > 0 {
		eo.InputBufferWords = o.BufferWords
		eo.OverflowExtra = o.OverflowExtra
	}
	m, err := exec.MeasureCtx(ctx, r.Expr, tts, eo)
	if err != nil {
		return err
	}
	measured := float64(m.Total())
	measuredRate := 0.0
	if m.InputFetches > 0 {
		measuredRate = float64(m.OverflowFetches) / float64(m.InputFetches)
	}
	residual := 0.0
	if measured > 0 {
		residual = math.Abs(measured-predicted) / measured
	}
	bias := calib.Observe(class, predicted, measured)

	if r.Risk == nil {
		r.Risk = &RiskReport{OverflowTarget: o.OverflowTarget, OverflowExtra: o.OverflowExtra}
	}
	r.Risk.Calibration = &CalibrationReport{
		Class:                 class,
		PredictedWords:        predicted,
		MeasuredWords:         measured,
		Residual:              residual,
		BiasAfter:             bias,
		PredictedOverflowRate: maxF(rk.fetchRate, rk.tileRate),
		MeasuredOverflowRate:  measuredRate,
	}
	return nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
