package optimizer

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
)

func riskInputs(t *testing.T) map[string]*tensor.COO {
	t.Helper()
	return gustavsonInputs(77, func(r *rand.Rand) *tensor.COO {
		return gen.PowerLawGraph(r, 512, 4000, 1.7)
	})
}

// TestRiskOptionsValidation: the risk knobs must be rejected loudly when
// out of range, before any tiling work starts.
func TestRiskOptionsValidation(t *testing.T) {
	inputs := riskInputs(t)
	e := einsum.SpMSpMIKJ()
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"negative target", Options{BufferWords: buf32(), OverflowTarget: -0.1}, "OverflowTarget"},
		{"target one", Options{BufferWords: buf32(), OverflowTarget: 1}, "OverflowTarget"},
		{"target above one", Options{BufferWords: buf32(), OverflowTarget: 1.5}, "OverflowTarget"},
		{"negative extra", Options{BufferWords: buf32(), OverflowTarget: 0.05, OverflowExtra: -1}, "OverflowExtra"},
	}
	for _, tc := range cases {
		_, err := OptimizeCtx(context.Background(), e, inputs, tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
}

// TestOverflowTargetZeroIdentity: the satellite-3 property — an explicit
// OverflowTarget of 0 is not a separate mode, it IS the conservative
// path. The full Result must be deeply equal to a plain run at any
// worker count, and Risk must stay nil.
func TestOverflowTargetZeroIdentity(t *testing.T) {
	inputs := riskInputs(t)
	e := einsum.SpMSpMIKJ()
	plain, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buf32(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		res, err := OptimizeCtx(context.Background(), e, inputs, Options{
			BufferWords:    buf32(),
			OverflowTarget: 0,
			Workers:        workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Risk != nil {
			t.Fatalf("workers=%d: OverflowTarget=0 produced a RiskReport: %+v", workers, res.Risk)
		}
		if !reflect.DeepEqual(res.Config, plain.Config) || res.TileFactor != plain.TileFactor || res.RF != plain.RF {
			t.Fatalf("workers=%d: OverflowTarget=0 diverged from the plain run:\n got %v tf=%d rf=%v\nwant %v tf=%d rf=%v",
				workers, res.Config, res.TileFactor, res.RF, plain.Config, plain.TileFactor, plain.RF)
		}
		if res.Predicted.Total() != plain.Predicted.Total() {
			t.Fatalf("workers=%d: predicted total %v != plain %v", workers, res.Predicted.Total(), plain.Predicted.Total())
		}
	}
}

// TestRiskDeterminism: the risk-aware path must also be worker-count
// invariant — the sweep, the percentile seed and the greedy doubling all
// resolve ties in fixed kernel order.
func TestRiskDeterminism(t *testing.T) {
	inputs := riskInputs(t)
	e := einsum.SpMSpMIKJ()
	var ref *Result
	for _, workers := range []int{1, 8} {
		res, err := OptimizeCtx(context.Background(), e, inputs, Options{
			BufferWords:    buf32(),
			OverflowTarget: 0.05,
			Workers:        workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Risk == nil {
			t.Fatal("positive OverflowTarget produced no RiskReport")
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Config, ref.Config) {
			t.Fatalf("workers=%d: config %v != workers=1 config %v", workers, res.Config, ref.Config)
		}
		if !reflect.DeepEqual(res.Risk, ref.Risk) {
			t.Fatalf("workers=%d: risk report %+v != workers=1 %+v", workers, res.Risk, ref.Risk)
		}
	}
}

// TestRiskReportShape: a positive target yields a self-consistent
// RiskReport — rate within target, utilization in (0, 1+], a percentile
// tile no larger than the buffer times a small overbooking factor.
func TestRiskReportShape(t *testing.T) {
	inputs := riskInputs(t)
	e := einsum.SpMSpMIKJ()
	res, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buf32(), OverflowTarget: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rk := res.Risk
	if rk == nil {
		t.Fatal("no risk report")
	}
	if rk.OverflowTarget != 0.1 {
		t.Errorf("target echo = %v", rk.OverflowTarget)
	}
	if rk.PredictedOverflowRate > 0.1 {
		t.Errorf("predicted rate %v exceeds target", rk.PredictedOverflowRate)
	}
	if rk.BufferUtilization <= 0 {
		t.Errorf("utilization = %v, want > 0", rk.BufferUtilization)
	}
	if rk.PercentileTile <= 0 || rk.PercentileTile > buf32() {
		t.Errorf("percentile tile = %d, want in (0, %d]", rk.PercentileTile, buf32())
	}
}

// TestRiskMeasuredWithinTarget: the end-to-end guarantee — executing the
// risk-sized config under the buffer model it was costed with keeps the
// machine-measured overflow rate within 2x the requested target.
func TestRiskMeasuredWithinTarget(t *testing.T) {
	inputs := riskInputs(t)
	e := einsum.SpMSpMIKJ()
	for _, target := range []float64{0.01, 0.1} {
		res, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buf32(), OverflowTarget: target})
		if err != nil {
			t.Fatal(err)
		}
		tts, err := TileAllCtx(context.Background(), e, inputs, res.Config, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := exec.MeasureCtx(context.Background(), e, tts, &exec.Options{InputBufferWords: buf32(), OverflowExtra: 1})
		if err != nil {
			t.Fatal(err)
		}
		rate := 0.0
		if m.InputFetches > 0 {
			rate = float64(m.OverflowFetches) / float64(m.InputFetches)
		}
		if rate > 2*target {
			t.Errorf("target %g: measured overflow rate %v exceeds 2x target (config %v)", target, rate, res.Config)
		}
	}
}

// TestCalibrationResidualShrinks pins the acceptance criterion for the
// calibration loop: repeated calibrated optimizes against a shared
// residual store converge — each run's traffic residual is strictly
// smaller than the previous one's (or already below 1%).
func TestCalibrationResidualShrinks(t *testing.T) {
	inputs := riskInputs(t)
	e := einsum.SpMSpMIKJ()
	calib := model.NewCalibration()
	var residuals []float64
	for i := 0; i < 4; i++ {
		res, err := OptimizeCtx(context.Background(), e, inputs, Options{
			BufferWords:    buf32(),
			OverflowTarget: 0.05,
			Calibrate:      true,
			Calibration:    calib,
		})
		if err != nil {
			t.Fatal(err)
		}
		cr := res.Risk.Calibration
		if cr == nil {
			t.Fatal("Calibrate=true produced no CalibrationReport")
		}
		if cr.Class != CalibClass(e, 0) {
			t.Fatalf("class = %q, want %q", cr.Class, CalibClass(e, 0))
		}
		if cr.MeasuredWords <= 0 || cr.PredictedWords <= 0 {
			t.Fatalf("run %d: degenerate calibration %+v", i, cr)
		}
		residuals = append(residuals, cr.Residual)
		t.Logf("run %d: predicted=%.0f measured=%.0f residual=%.4f bias=%.4f",
			i, cr.PredictedWords, cr.MeasuredWords, cr.Residual, cr.BiasAfter)
	}
	for i := 1; i < len(residuals); i++ {
		if residuals[i] >= residuals[i-1] && residuals[i] > 0.01 {
			t.Errorf("residual did not shrink: run %d = %v, run %d = %v (all: %v)",
				i-1, residuals[i-1], i, residuals[i], residuals)
		}
	}
	if got := calib.Runs(CalibClass(e, 0)); got != 4 {
		t.Errorf("calibration store recorded %d runs, want 4", got)
	}
}

// TestCalibrationRequiresRawInputs: stats-only precollection cannot be
// executed, so a calibrated optimize over it must fail loudly rather
// than silently skipping the measurement.
func TestCalibrationRequiresRawInputs(t *testing.T) {
	inputs := riskInputs(t)
	e := einsum.SpMSpMIKJ()
	plain, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buf32()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = OptimizeCtx(context.Background(), e, nil, Options{
		BufferWords:  buf32(),
		Calibrate:    true,
		Precollected: map[string]*stats.Stats{"A": plain.Stats["A"], "B": plain.Stats["B"]},
	})
	if err == nil || !strings.Contains(err.Error(), "calibration requires raw input") {
		t.Fatalf("err = %v, want calibration-requires-raw-input", err)
	}
}
