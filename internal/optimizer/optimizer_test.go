package optimizer

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// buffer sized for a 32x32 dense tile.
func buf32() int { return tiling.DenseFootprintWords([]int{32, 32}) }

func gustavsonInputs(seed int64, build func(r *rand.Rand) *tensor.COO) map[string]*tensor.COO {
	r := rand.New(rand.NewSource(seed))
	a := build(r)
	return map[string]*tensor.COO{"A": a, "B": a.Transpose()}
}

func TestOptimizeBasics(t *testing.T) {
	inputs := gustavsonInputs(31, func(r *rand.Rand) *tensor.COO {
		return gen.PowerLawGraph(r, 512, 4000, 1.7)
	})
	e := einsum.SpMSpMIKJ()
	res, err := Optimize(e, inputs, Options{BufferWords: buf32()})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseTile != 32 {
		t.Fatalf("base tile = %d, want 32", res.BaseTile)
	}
	if len(res.Candidates) < 1 || len(res.Candidates) > 6 {
		t.Fatalf("candidates = %d, want 1..6 RFs (unfit shapes are skipped)", len(res.Candidates))
	}
	for _, ix := range e.Order {
		if res.Config[ix] < 1 {
			t.Fatalf("config misses %q: %v", ix, res.Config)
		}
	}
	if res.Predicted == nil || res.Predicted.Total() <= 0 {
		t.Fatal("no prediction for final config")
	}
	if res.Stats["A"] == nil || res.BaseTiling["B"] == nil {
		t.Fatal("stats/base tiling not returned")
	}
}

// TestOptimizedConfigFits: the defining guarantee of D2T2 — every input
// tile of the final configuration actually fits the buffer.
func TestOptimizedConfigFits(t *testing.T) {
	cases := []func(r *rand.Rand) *tensor.COO{
		func(r *rand.Rand) *tensor.COO { return gen.Banded(r, 512, 8, 8) },
		func(r *rand.Rand) *tensor.COO { return gen.PowerLawGraph(r, 512, 5000, 1.8) },
		func(r *rand.Rand) *tensor.COO { return gen.UniformRandom(r, 512, 512, 3000) },
		func(r *rand.Rand) *tensor.COO { return gen.Grid5Point(r, 4096) },
	}
	e := einsum.SpMSpMIKJ()
	for ci, build := range cases {
		inputs := gustavsonInputs(int64(40+ci), build)
		res, err := Optimize(e, inputs, Options{BufferWords: buf32()})
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		tiled, err := TileAll(e, inputs, res.Config)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for name, tt := range tiled {
			if tt.MaxFootprint > buf32() {
				t.Fatalf("case %d: %s max tile %d exceeds buffer %d (config %v)",
					ci, name, tt.MaxFootprint, buf32(), res.Config)
			}
		}
	}
}

// TestOptimizeReducesTrafficVsConservative: the headline property — the
// optimized configuration's measured traffic beats the conservative
// square baseline (or at worst matches it closely).
func TestOptimizeReducesTrafficVsConservative(t *testing.T) {
	cases := map[string]func(r *rand.Rand) *tensor.COO{
		"grid":     func(r *rand.Rand) *tensor.COO { return gen.Grid5Point(r, 4096) },
		"powerlaw": func(r *rand.Rand) *tensor.COO { return gen.PowerLawGraph(r, 512, 4000, 1.8) },
		"banded":   func(r *rand.Rand) *tensor.COO { return gen.Banded(r, 512, 6, 8) },
	}
	e := einsum.SpMSpMIKJ()
	for name, build := range cases {
		inputs := gustavsonInputs(51, build)
		res, err := Optimize(e, inputs, Options{BufferWords: buf32()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt, err := TileAll(e, inputs, res.Config)
		if err != nil {
			t.Fatal(err)
		}
		optRes, err := exec.Measure(e, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := exec.Measure(e, res.BaseTiling, nil)
		if err != nil {
			t.Fatal(err)
		}
		if float64(optRes.Total()) > 1.10*float64(baseRes.Total()) {
			t.Fatalf("%s: optimized traffic %d worse than conservative %d (config %v)",
				name, optRes.Total(), baseRes.Total(), res.Config)
		}
	}
}

func TestOptionsVariants(t *testing.T) {
	inputs := gustavsonInputs(61, func(r *rand.Rand) *tensor.COO {
		return gen.Banded(r, 512, 6, 8)
	})
	e := einsum.SpMSpMIKJ()

	// SkipResize keeps the area at the base tile's.
	res, err := Optimize(e, inputs, Options{BufferWords: buf32(), SkipResize: true})
	if err != nil {
		t.Fatal(err)
	}
	area := res.Config["i"] * res.Config["k"]
	if area > 2*32*32 {
		t.Fatalf("SkipResize grew the area: %v", res.Config)
	}

	// CorrsOnly picks square for banded (high reuse) data.
	resC, err := Optimize(e, inputs, Options{BufferWords: buf32(), CorrsOnly: true, SkipResize: true})
	if err != nil {
		t.Fatal(err)
	}
	if resC.RF != 1 {
		t.Fatalf("CorrsOnly on banded data chose RF=%v, want square", resC.RF)
	}

	// CorrsOnly picks outer-product for uncorrelated data.
	inputsU := gustavsonInputs(62, func(r *rand.Rand) *tensor.COO {
		return gen.UniformRandom(r, 512, 512, 2000)
	})
	resU, err := Optimize(e, inputsU, Options{BufferWords: buf32(), CorrsOnly: true, SkipResize: true})
	if err != nil {
		t.Fatal(err)
	}
	if resU.RF != 8 {
		t.Fatalf("CorrsOnly on uniform data chose RF=%v, want outer-product", resU.RF)
	}

	// DisableCorrs still optimizes.
	if _, err := Optimize(e, inputs, Options{BufferWords: buf32(), DisableCorrs: true}); err != nil {
		t.Fatal(err)
	}

	// Analytic mode still optimizes.
	if _, err := Optimize(e, inputs, Options{BufferWords: buf32(), Mode: model.ModeAnalytic}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeErrors(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	if _, err := Optimize(e, nil, Options{BufferWords: 0}); err == nil {
		t.Fatal("zero buffer accepted")
	}
	if _, err := Optimize(e, map[string]*tensor.COO{}, Options{BufferWords: 1000}); err == nil {
		t.Fatal("missing inputs accepted")
	}
}

func TestOptimizeTTM(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	c := gen.RandomTensor3(r, 128, 96, 80, 6000, [3]float64{0, 0, 0.4})
	b := gen.UniformRandom(r, 96, 80, 800)
	e := einsum.TTM()
	buffer := tiling.DenseFootprintWords([]int{16, 16, 16})
	res, err := Optimize(e, map[string]*tensor.COO{"C": c, "B": b}, Options{BufferWords: buffer})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseTile != 16 {
		t.Fatalf("TTM base tile = %d, want 16", res.BaseTile)
	}
	tiled, err := TileAll(e, map[string]*tensor.COO{"C": c, "B": b}, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	for name, tt := range tiled {
		if tt.MaxFootprint > buffer {
			t.Fatalf("TTM %s tile overflows: %d > %d", name, tt.MaxFootprint, buffer)
		}
	}
	if _, err := exec.Measure(e, tiled, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTileAllErrors(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	if _, err := TileAll(e, map[string]*tensor.COO{}, model.Config{"i": 2, "k": 2, "j": 2}); err == nil {
		t.Fatal("missing input accepted")
	}
	a := tensor.New(4, 4)
	if _, err := TileAll(e, map[string]*tensor.COO{"A": a, "B": a}, model.Config{"i": 2}); err == nil {
		t.Fatal("incomplete config accepted")
	}
}

// TestQuickFitGuarantee: for randomized structures and buffer sizes, the
// final configuration's actual max tile never exceeds the buffer — the
// defining guarantee of the scheme (property-based version of
// TestOptimizedConfigFits).
func TestQuickFitGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a *tensor.COO
		switch seed % 4 {
		case 0:
			a = gen.Banded(r, 256+r.Intn(256), 2+r.Intn(8), 4+r.Intn(6))
		case 1:
			a = gen.PowerLawGraph(r, 256+r.Intn(256), 1500+r.Intn(2000), 1.4+r.Float64())
		case 2:
			a = gen.UniformRandom(r, 200+r.Intn(300), 200+r.Intn(300), 1000+r.Intn(2000))
		default:
			a = gen.BipartiteBlocks(r, 300+r.Intn(200), 20+r.Intn(30), 4+r.Intn(4), 4+r.Intn(5))
		}
		side := []int{16, 32, 64}[r.Intn(3)]
		buffer := tiling.DenseFootprintWords([]int{side, side})
		inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
		e := einsum.SpMSpMIKJ()
		res, err := Optimize(e, inputs, Options{BufferWords: buffer})
		if err != nil {
			return false
		}
		tiled, err := TileAll(e, inputs, res.Config)
		if err != nil {
			return false
		}
		for _, tt := range tiled {
			if tt.MaxFootprint > buffer {
				t.Logf("seed %d: config %v max %d > buffer %d", seed, res.Config, tt.MaxFootprint, buffer)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectDataflow(t *testing.T) {
	inputs := gustavsonInputs(91, func(r *rand.Rand) *tensor.COO {
		return gen.Banded(r, 256, 6, 8)
	})
	e := einsum.SpMSpMIKJ()
	best, cands, err := SelectDataflow(e, inputs,
		[][]string{{"i", "k", "j"}, {"i", "j", "k"}, {"k", "i", "j"}},
		Options{BufferWords: buf32()})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	for _, c := range cands {
		if c.Predicted <= 0 || c.Result == nil {
			t.Fatalf("bad candidate %+v", c)
		}
		if best.Predicted.Total() > c.Predicted {
			t.Fatalf("best %v worse than candidate %v", best.Predicted.Total(), c.Predicted)
		}
	}
	// Each candidate executes correctly under its own order.
	for _, c := range cands {
		variant, err := e.WithOrder(c.Order)
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := TileAll(variant, inputs, c.Result.Config)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Measure(variant, tiled, nil); err != nil {
			t.Fatalf("order %v fails to execute: %v", c.Order, err)
		}
	}
}

func TestOrderPermutations(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	perms := e.OrderPermutations()
	if len(perms) != 6 {
		t.Fatalf("3 indices should give 6 permutations, got %d", len(perms))
	}
	seen := map[string]bool{}
	for _, p := range perms {
		key := fmt.Sprint(p)
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	}
	if _, err := e.WithOrder([]string{"i", "k"}); err == nil {
		t.Fatal("incomplete order accepted")
	}
}

// TestOptimizeFusedKernel: the paper supports "possibly fused" kernels;
// the pipeline must run end-to-end on a fused add-multiply expression
// (the model falls back to mean-field paths for multi-summand RHS).
func TestOptimizeFusedKernel(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	a := gen.Banded(r, 256, 4, 5)
	b := gen.UniformRandom(r, 256, 256, 800)
	c := gen.Banded(r, 256, 8, 6)
	e := einsum.MustParse("D(i,j) = (A(i,j) + B(i,j)) * C(i,j) | order: i,j")
	inputs := map[string]*tensor.COO{"A": a, "B": b, "C": c}
	buffer := tiling.DenseFootprintWords([]int{32, 32})
	res, err := Optimize(e, inputs, Options{BufferWords: buffer})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := TileAll(e, inputs, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	for name, tt := range tiled {
		if tt.MaxFootprint > buffer {
			t.Fatalf("%s tile overflows: %d > %d", name, tt.MaxFootprint, buffer)
		}
	}
	m, err := exec.Measure(e, tiled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() <= 0 {
		t.Fatal("no traffic measured")
	}
}

// TestOptimizeSDDMM runs the three-factor sampled-matmul kernel through
// the pipeline.
func TestOptimizeSDDMM(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	s := gen.UniformRandom(r, 256, 256, 500)
	a := gen.Banded(r, 256, 5, 6)
	b := gen.Banded(r, 256, 5, 6)
	e := einsum.SDDMM()
	inputs := map[string]*tensor.COO{"S": s, "A": a, "B": b}
	buffer := tiling.DenseFootprintWords([]int{32, 32})
	res, err := Optimize(e, inputs, Options{BufferWords: buffer})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := TileAll(e, inputs, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	m, err := exec.Measure(e, tiled, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The mask bounds the output: every output coordinate needs an S
	// entry, so output nnz per write cannot exceed the mask's total.
	if m.OutputNNZ > int64(s.NNZ())*int64(res.Config["k"]+1) {
		t.Fatalf("SDDMM output nnz %d implausible vs mask %d", m.OutputNNZ, s.NNZ())
	}
}

// TestHugeBufferStable: once the buffer exceeds the whole tensor, a
// larger buffer must not change the plan. The derived base tile is
// capped at the tensor's power-of-two cover, so the micro tiles and the
// growth cannot outgrow the matrix and inflate the output prediction,
// and the Eq. 22 seed product saturates instead of overflowing.
func TestHugeBufferStable(t *testing.T) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(3)), 3000, 30000, 1.6)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	var first *Result
	for _, shift := range []int{40, 50, 62} {
		res, err := Optimize(e, inputs, Options{BufferWords: 1 << shift})
		if err != nil {
			t.Fatal(err)
		}
		if res.BaseTile != 4096 {
			t.Errorf("buffer 2^%d: base tile %d, want the 4096 cover of a 3000-row matrix", shift, res.BaseTile)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.Config, first.Config) || res.Predicted.Total() != first.Predicted.Total() {
			t.Fatalf("buffer 2^%d: config %v, predicted %.0f words; at 2^40: %v, %.0f",
				shift, res.Config, res.Predicted.Total(), first.Config, first.Predicted.Total())
		}
	}
	t.Logf("config %v, predicted %.0f words", first.Config, first.Predicted.Total())
}

// TestSharedPredictor runs optimizations through one Options.Predictor:
// a matching one gives the result a private predictor gives and serves
// the repeat from its memo, and one built for another expression, mode,
// ablation or bundle, or any calibrated use, is an error.
func TestSharedPredictor(t *testing.T) {
	inputs := gustavsonInputs(37, func(r *rand.Rand) *tensor.COO {
		return gen.PowerLawGraph(r, 384, 3000, 1.6)
	})
	e := einsum.SpMSpMIKJ()
	base := Options{BufferWords: buf32()}
	plain, err := Optimize(e, inputs, base)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Precollected = plain.Stats
	pred, err := o.NewPredictor(e, plain.Stats)
	if err != nil {
		t.Fatal(err)
	}
	o.Predictor = pred
	for run := 0; run < 2; run++ {
		res, err := Optimize(e, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Config, plain.Config) || !reflect.DeepEqual(res.Predicted, plain.Predicted) ||
			!reflect.DeepEqual(res.Candidates, plain.Candidates) {
			t.Fatalf("run %d: shared-predictor result differs from a private predictor's", run)
		}
		if run == 0 {
			continue
		}
		if pred.Computed() != int64(pred.Kept()) {
			t.Fatalf("the repeat computed again: %d predictions for %d configs", pred.Computed(), pred.Kept())
		}
	}

	other, err := Optimize(e, inputs, base) // equal statistics, other bundles
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(o *Options){
		"expression":  func(o *Options) { o.Predictor, _ = o.NewPredictor(einsum.SpMSpMIJK(), plain.Stats) },
		"mode":        func(o *Options) { o.Mode = model.ModeAnalytic },
		"corrs":       func(o *Options) { o.DisableCorrs = true },
		"refinement":  func(o *Options) { o.DisableRefinement = true },
		"bundle":      func(o *Options) { o.Precollected = other.Stats },
		"calibrate":   func(o *Options) { o.Calibrate = true },
		"calibration": func(o *Options) { o.Calibration = model.NewCalibration() },
	} {
		bad := o
		mutate(&bad)
		if _, err := Optimize(e, inputs, bad); err == nil || !strings.Contains(err.Error(), "predictor") {
			t.Errorf("%s mismatch: got %v, want the shared predictor refused", name, err)
		}
	}
}
