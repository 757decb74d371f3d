package model

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// buildPredictor collects stats for a Gustavson A×B kernel.
func buildPredictor(t *testing.T, e *einsum.Expr, mats map[string]*tensor.COO, baseTile int, microDiv int) *Predictor {
	t.Helper()
	st := make(map[string]*stats.Stats)
	for _, ref := range e.Inputs() {
		m := mats[ref.Name]
		base := make([]int, len(ref.Indices))
		for a := range base {
			base[a] = baseTile
		}
		s, _, err := stats.CollectCtx(context.Background(), m, base, e.LevelOrder(ref), &stats.Options{MicroDiv: microDiv})
		if err != nil {
			t.Fatal(err)
		}
		st[ref.Name] = s
	}
	p, err := New(e, st)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// measureCfg runs the measurement backend at a (snapped) config.
func measureCfg(t *testing.T, e *einsum.Expr, mats map[string]*tensor.COO, cfg Config) *exec.Result {
	t.Helper()
	tens := make(map[string]*tiling.TiledTensor)
	for _, ref := range e.Inputs() {
		dims := make([]int, len(ref.Indices))
		for a, ix := range ref.Indices {
			dims[a] = cfg[ix]
			if d := mats[ref.Name].Dims[a]; dims[a] > d {
				dims[a] = d
			}
		}
		tt, err := tiling.NewCtx(context.Background(), mats[ref.Name], dims, e.LevelOrder(ref), 0)
		if err != nil {
			t.Fatal(err)
		}
		tens[ref.Name] = tt
	}
	res, err := exec.MeasureCtx(context.Background(), e, tens, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func denseMat(n int) *tensor.COO {
	m := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Append([]int{i, j}, 1)
		}
	}
	return m
}

func TestPredictDenseExact(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	mats := map[string]*tensor.COO{"A": denseMat(16), "B": denseMat(16)}
	p := buildPredictor(t, e, mats, 4, 2)
	cfg := Config{"i": 4, "k": 4, "j": 4}
	pred, err := p.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := measureCfg(t, e, mats, cfg)
	// Dense data: every probability is 1 and the model must be exact on
	// inputs.
	if math.Abs(pred.Input["A"]-float64(got.Input["A"])) > 1e-6 {
		t.Fatalf("A: predicted %v, measured %d", pred.Input["A"], got.Input["A"])
	}
	if math.Abs(pred.Input["B"]-float64(got.Input["B"])) > 1e-6 {
		t.Fatalf("B: predicted %v, measured %d", pred.Input["B"], got.Input["B"])
	}
	// Output: dense 4x4 partial tiles; prediction within 20% (metadata
	// estimate is approximate).
	ratio := pred.Output / float64(got.Output)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("output: predicted %v, measured %d (ratio %v)", pred.Output, got.Output, ratio)
	}
}

func TestPredictGustavsonEquation16And17Shape(t *testing.T) {
	// Hand-checkable diagonal case: A = B = diagonal 32x32, tiles 8.
	// Diagonal tiles only: 4 tiles; PrTileIdx(B,k') = 1 (every k' row of
	// tiles occupied); P_tile(A) = 1/4... verify relative structure: A and
	// B see identical traffic by symmetry.
	e := einsum.SpMSpMIKJ()
	d := tensor.New(32, 32)
	for i := 0; i < 32; i++ {
		d.Append([]int{i, i}, 1)
	}
	mats := map[string]*tensor.COO{"A": d, "B": d.Clone()}
	p := buildPredictor(t, e, mats, 8, 2)
	cfg := Config{"i": 8, "k": 8, "j": 8}
	pred, err := p.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := measureCfg(t, e, mats, cfg)
	// Diagonal×diagonal: A fetched once per diagonal tile; B once per
	// (i',k',j') with all tiles diagonal = once per diagonal position.
	for _, name := range []string{"A", "B"} {
		rel := pred.Input[name] / float64(got.Input[name])
		if rel < 0.9 || rel > 1.1 {
			t.Fatalf("%s: predicted %v, measured %d", name, pred.Input[name], got.Input[name])
		}
	}
}

// TestPredictTracksMeasurementAcrossShapes is the in-package version of
// the paper's model validation (Fig. 5): across reorder factors, the
// predicted total must track measured total within a modest band, and
// relative ordering of clearly-different shapes must be preserved.
func TestPredictTracksMeasurementAcrossShapes(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	cases := map[string]*tensor.COO{
		"banded":   gen.Banded(r, 512, 6, 8),
		"powerlaw": gen.PowerLawGraph(r, 512, 4096, 1.7),
		"uniform":  gen.UniformRandom(r, 512, 512, 4096),
	}
	e := einsum.SpMSpMIKJ()
	for name, a := range cases {
		b := a.Transpose()
		mats := map[string]*tensor.COO{"A": a, "B": b}
		p := buildPredictor(t, e, mats, 32, 8)

		type point struct {
			pred, meas float64
		}
		var pts []point
		for _, rf := range []int{1, 2, 4, 8} {
			cfg := p.SnapConfig(Config{"i": 32 * rf, "k": 32 / rf, "j": 32 * rf})
			pred, err := p.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			meas := measureCfg(t, e, mats, cfg)
			pts = append(pts, point{pred.Total(), float64(meas.Total())})
		}
		// Band check. For weakly correlated inputs (banded, uniform) the
		// model is tight: total within 1.5x. For power-law A×Aᵀ the tile
		// occupancies of A and Aᵀ are strongly correlated and the paper's
		// independence assumption systematically *underestimates* (§5.3,
		// Fig. 5b–d outliers); we only require the underestimate
		// direction there and rely on the ordering check below.
		for i, pt := range pts {
			ratio := pt.pred / pt.meas
			if name == "powerlaw" {
				if ratio > 1.5 {
					t.Fatalf("%s rf=2^%d: overestimate %v vs %v contradicts §5.3", name, i, pt.pred, pt.meas)
				}
				continue
			}
			if ratio < 1/1.5 || ratio > 1.5 {
				t.Fatalf("%s rf=2^%d: predicted %v vs measured %v", name, i, pt.pred, pt.meas)
			}
		}
		// Ordering: the predicted-best shape must be within 40% of the
		// measured-best shape's actual traffic.
		bestPred, bestMeas := 0, 0
		for i, pt := range pts {
			if pt.pred < pts[bestPred].pred {
				bestPred = i
			}
			if pt.meas < pts[bestMeas].meas {
				bestMeas = i
			}
		}
		if pts[bestPred].meas > 1.4*pts[bestMeas].meas {
			t.Fatalf("%s: predicted-best shape rf=2^%d costs %v, true best rf=2^%d costs %v",
				name, bestPred, pts[bestPred].meas, bestMeas, pts[bestMeas].meas)
		}
	}
}

func TestAnalyticModeRuns(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	a := gen.Banded(r, 256, 4, 6)
	mats := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	p := buildPredictor(t, e, mats, 16, 4)
	p.Mode = ModeAnalytic
	base, err := p.Predict(Config{"i": 16, "k": 16, "j": 16})
	if err != nil {
		t.Fatal(err)
	}
	if base.Total() <= 0 {
		t.Fatal("analytic mode predicts no traffic")
	}
	// Growing i with banded (correlated) occupancy must reduce B traffic
	// (fewer effective i' iterations re-fetch B).
	grown, err := p.Predict(Config{"i": 64, "k": 16, "j": 16})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Input["B"] >= base.Input["B"] {
		t.Fatalf("B traffic did not drop when i' merged: %v -> %v",
			base.Input["B"], grown.Input["B"])
	}
}

func TestCorrsReducesOutputPrediction(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a := gen.Banded(r, 256, 3, 6) // strongly shift-correlated
	mats := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	p := buildPredictor(t, e, mats, 16, 4)
	cfg := Config{"i": 16, "k": 16, "j": 16}
	with, err := p.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.UseCorrs = false
	without, err := p.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if with.Output >= without.Output {
		t.Fatalf("Corrs discount missing: with=%v without=%v", with.Output, without.Output)
	}
	// Input predictions are unaffected by the Corrs toggle.
	if with.Input["A"] != without.Input["A"] || with.Input["B"] != without.Input["B"] {
		t.Fatal("Corrs toggle changed input predictions")
	}
}

func TestPredictErrors(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	if _, err := New(e, nil); err == nil {
		t.Fatal("missing stats accepted")
	}
	a := denseMat(8)
	mats := map[string]*tensor.COO{"A": a, "B": a.Clone()}
	p := buildPredictor(t, e, mats, 4, 2)
	if _, err := p.Predict(Config{"i": 4, "k": 4}); err == nil {
		t.Fatal("config missing index accepted")
	}
}

func TestPredictTTMAndMTTKRP(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	a3 := gen.RandomTensor3(r, 64, 48, 40, 3000, [3]float64{0, 0, 0.4})
	bm := gen.UniformRandom(r, 48, 40, 200)
	cm := gen.UniformRandom(r, 48, 40, 200)

	// TTM: X(i,j,k) = C(i,j,l)*B(k,l)
	e := einsum.TTM()
	st := make(map[string]*stats.Stats)
	s1, _, err := stats.CollectCtx(context.Background(), a3, []int{8, 8, 8}, mustInput(t, e, "C"), &stats.Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	st["C"] = s1
	s2, _, err := stats.CollectCtx(context.Background(), bm, []int{8, 8}, mustInput(t, e, "B"), &stats.Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	st["B"] = s2
	p, err := New(e, st)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.Predict(Config{"i": 8, "j": 8, "l": 8, "k": 8})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Total() <= 0 {
		t.Fatal("TTM prediction empty")
	}
	meas := measureCfg(t, e, map[string]*tensor.COO{"C": a3, "B": bm},
		Config{"i": 8, "j": 8, "l": 8, "k": 8})
	ratio := pred.Total() / float64(meas.Total())
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("TTM prediction off: %v vs %d", pred.Total(), meas.Total())
	}

	// MTTKRP smoke: predictor constructs and returns positive traffic.
	e2 := einsum.MTTKRP3()
	st2 := make(map[string]*stats.Stats)
	sa, _, err := stats.CollectCtx(context.Background(), a3, []int{8, 8, 8}, mustInput(t, e2, "A"), &stats.Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := stats.CollectCtx(context.Background(), bm, []int{8, 8}, mustInput(t, e2, "B"), &stats.Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := stats.CollectCtx(context.Background(), cm, []int{8, 8}, mustInput(t, e2, "C"), &stats.Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	st2["A"], st2["B"], st2["C"] = sa, sb, sc
	p2, err := New(e2, st2)
	if err != nil {
		t.Fatal(err)
	}
	pred2, err := p2.Predict(Config{"i": 8, "k": 8, "l": 8, "j": 8})
	if err != nil {
		t.Fatal(err)
	}
	if pred2.Total() <= 0 {
		t.Fatal("MTTKRP prediction empty")
	}
}

func mustInput(t *testing.T, e *einsum.Expr, name string) []int {
	t.Helper()
	ref, err := e.Input(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.LevelOrder(ref)
}

func TestConfigClone(t *testing.T) {
	c := Config{"i": 1}
	d := c.Clone()
	d["i"] = 2
	if c["i"] != 1 {
		t.Fatal("Clone aliased the map")
	}
}

// TestRefinementImprovesCorrelatedPrediction: the exact cross-operand
// refinement must reduce input-traffic error on A×Aᵀ power-law operands
// relative to the pure mean-field model (which §5.3 reports as
// systematically underestimating).
func TestRefinementImprovesCorrelatedPrediction(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	a := gen.PowerLawGraph(r, 512, 4096, 1.7)
	mats := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	p := buildPredictor(t, e, mats, 32, 8)
	cfg := p.SnapConfig(Config{"i": 32, "k": 32, "j": 32})

	refined, err := p.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.DisableRefinement = true
	meanfield, err := p.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meas := measureCfg(t, e, mats, cfg)
	truth := float64(meas.InputTotal())

	errRefined := math.Abs(refined.InputTotal() - truth)
	errMean := math.Abs(meanfield.InputTotal() - truth)
	if errRefined > errMean {
		t.Fatalf("refinement increased input error: %.0f vs %.0f (truth %.0f)",
			errRefined, errMean, truth)
	}
	// On this kernel the refined input estimate is essentially exact.
	if errRefined > 0.02*truth {
		t.Fatalf("refined input traffic off by %.1f%%", 100*errRefined/truth)
	}
}

// TestRefinementFallsBackForMultiOwnerExtras: MTTKRP's B operand has
// extra indices owned by two cofactors; the model must fall back to the
// mean-field path and still produce a finite prediction.
func TestRefinementFallsBackForMultiOwnerExtras(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	a3 := gen.RandomTensor3(r, 48, 40, 32, 1500, [3]float64{0, 0, 0})
	bm := gen.UniformRandom(r, 40, 40, 160)
	cm := gen.UniformRandom(r, 40, 32, 160)
	e := einsum.MTTKRP3()
	st := make(map[string]*stats.Stats)
	for name, m := range map[string]*tensor.COO{"A": a3, "B": bm, "C": cm} {
		ref, _ := e.Input(name)
		base := make([]int, len(ref.Indices))
		for a := range base {
			base[a] = 8
		}
		s, _, err := stats.CollectCtx(context.Background(), m, base, e.LevelOrder(ref), &stats.Options{MicroDiv: 2})
		if err != nil {
			t.Fatal(err)
		}
		st[name] = s
	}
	p, err := New(e, st)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.Predict(Config{"i": 8, "k": 8, "l": 8, "j": 8})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Input["B"] <= 0 || math.IsNaN(pred.Input["B"]) || math.IsInf(pred.Input["B"], 0) {
		t.Fatalf("B fallback prediction bad: %v", pred.Input["B"])
	}
}

// TestRefinedOutputAccuracy pins the headline property of the refined
// output estimator: for two-operand single-contraction kernels the
// predicted output traffic lands within 35% of the measured value on
// structurally different matrices and both dataflows (the mean-field
// model is off by 10-100x on some of these).
func TestRefinedOutputAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cases := map[string]*tensor.COO{
		"grid":    gen.Grid5Point(r, 4096),
		"uniform": gen.UniformRandom(r, 512, 512, 3000),
		"banded":  gen.Banded(r, 512, 6, 8),
	}
	for name, a := range cases {
		for _, kernel := range []*einsum.Expr{einsum.SpMSpMIKJ(), einsum.SpMSpMIJK()} {
			b := a.Transpose()
			if bref, _ := kernel.Input("B"); bref.Indices[0] == "j" {
				b = a.Clone()
			}
			mats := map[string]*tensor.COO{"A": a, "B": b}
			p := buildPredictor(t, kernel, mats, 32, 8)
			cfg := p.SnapConfig(Config{"i": 32, "k": 32, "j": 32})
			pred, err := p.Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			meas := measureCfg(t, kernel, mats, cfg)
			ratio := pred.Output / float64(meas.Output)
			if ratio < 0.65 || ratio > 1.35 {
				t.Fatalf("%s %v: refined output %v vs measured %d (ratio %.2f)",
					name, kernel.Order, pred.Output, meas.Output, ratio)
			}
		}
	}
}
