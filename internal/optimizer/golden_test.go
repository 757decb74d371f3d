package optimizer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// optimizeGridDigest is the SHA-256 of the encoded Results of
// TestOptimizeGridGolden's grid. A change that moves any chosen config,
// reorder factor, TileFactor, risk report or prediction bit changes it;
// recompute it only when such a change is intended, and say so where the
// change is described.
const optimizeGridDigest = "e709ed44a506f855b0a3545d50bd0596baa0169d59a00f05833e27bb1bb224fc"

// collisionGridDigest hashes TestOptimizeGridGolden's collision points
// the same way. It was computed while the sweep still merged snapped
// duplicates itself, before the predictor's memos carried that dedupe.
const collisionGridDigest = "2b22a88d05f3c2496992b111699aca95ac76c6d9a6a0ddbf1b27f4440b8dab90"

// TestOptimizeGridGolden pins OptimizeCtx's output over a grid: four
// generator families, each as SpMSpM ikj and ijk (A, Aᵀ) and as the
// matrix of TTM, at dense 16/32/64 buffers and overflow targets 0 and
// 0.05. Every Result is encoded (kernel, base tile, config, RF,
// TileFactor, risk report, prediction and every candidate, floats in
// their exact shortest form) and the encodings are hashed in grid order,
// so the test fails when any one of them moves.
//
// The collision points (collisionGrid) are tiny and rectangular inputs
// on which several RFs snap to one config, so they pin the sweep's keep
// rule: a fitting config is kept under its first RF, a non-fitting one
// only under the literal RF 1.
func TestOptimizeGridGolden(t *testing.T) {
	families := []struct {
		name  string
		build func(r *rand.Rand, n int) *tensor.COO
	}{
		{"powerlaw", func(r *rand.Rand, n int) *tensor.COO { return gen.PowerLawGraph(r, n, 12*n, 1.7) }},
		{"uniform", func(r *rand.Rand, n int) *tensor.COO { return gen.UniformRandom(r, n, n, 10*n) }},
		{"banded", func(r *rand.Rand, n int) *tensor.COO { return gen.Banded(r, n, 6, 5) }},
		{"circuit", func(r *rand.Rand, n int) *tensor.COO { return gen.CircuitLike(r, n, 4, 3) }},
	}
	h := sha256.New()
	points := 0
	for fi, fam := range families {
		r := rand.New(rand.NewSource(int64(101 + fi)))
		a := fam.build(r, 1024)
		b := fam.build(r, 96)
		c := gen.RandomTensor3(r, 128, 96, 96, 6000, [3]float64{0, 0.3, 0.3})
		kernels := []struct {
			e      *einsum.Expr
			inputs map[string]*tensor.COO
			order  int
		}{
			{einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": a.Transpose()}, 2},
			{einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": a, "B": a.Transpose()}, 2},
			{einsum.TTM(), map[string]*tensor.COO{"C": c, "B": b}, 3},
		}
		for _, k := range kernels {
			for _, d := range []int{16, 32, 64} {
				dims := make([]int, k.order)
				for i := range dims {
					dims[i] = d
				}
				for _, target := range []float64{0, 0.05} {
					res, err := OptimizeCtx(context.Background(), k.e, k.inputs, Options{
						BufferWords:    tiling.DenseFootprintWords(dims),
						OverflowTarget: target,
						Workers:        2,
					})
					if err != nil {
						t.Fatalf("%s %s d=%d target=%v: %v", fam.name, k.e, d, target, err)
					}
					enc, err := encodeResult(res)
					if err != nil {
						t.Fatalf("%s %s d=%d target=%v: %v", fam.name, k.e, d, target, err)
					}
					fmt.Fprintf(h, "%s %s d=%d target=%v\n", fam.name, k.e, d, target)
					h.Write(enc)
					h.Write([]byte{'\n'})
					points++
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != optimizeGridDigest {
		t.Fatalf("Optimize over the %d-point grid hashes to %s, want %s", points, got, optimizeGridDigest)
	}
	collisionGrid(t)
}

// collisionGrid runs TestOptimizeGridGolden's collision points: an 8×8
// diagonal (ExampleOptimize's input), 6×3 and 3×6 rectangles and a dense
// 8×8, each as SpMSpM ikj (A, Aᵀ), ijk (A, A) and the matrix of a tiny
// TTM, at dense 2/4/8 buffers, derived and 8-wide base tiles, and
// overflow targets 0 and 0.05. It also checks that the points exercise
// both keep-rule branches.
func collisionGrid(t *testing.T) {
	diag := tensor.New(8, 8)
	for i := 0; i < 8; i++ {
		diag.Append([]int{i, i}, 1)
	}
	r := rand.New(rand.NewSource(7))
	mats := []struct {
		name string
		m    *tensor.COO
	}{
		{"diag8", diag},
		{"rect6x3", gen.UniformRandom(r, 6, 3, 10)},
		{"rect3x6", gen.UniformRandom(r, 3, 6, 10)},
		{"dense8", gen.UniformRandom(r, 8, 8, 64)},
	}
	h := sha256.New()
	points, fitDups, unfitOnes := 0, 0, 0
	for _, mt := range mats {
		ttm := gen.RandomTensor3(rand.New(rand.NewSource(9)), 4, 4, mt.m.Dims[1], 20, [3]float64{})
		kernels := []struct {
			e      *einsum.Expr
			inputs map[string]*tensor.COO
		}{
			{einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": mt.m, "B": mt.m.Transpose()}},
			{einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": mt.m, "B": mt.m}},
			{einsum.TTM(), map[string]*tensor.COO{"C": ttm, "B": mt.m}},
		}
		for _, k := range kernels {
			for _, d := range []int{2, 4, 8} {
				for _, bt := range []int{0, 8} {
					for _, target := range []float64{0, 0.05} {
						o := Options{
							BufferWords:    tiling.DenseFootprintWords([]int{d, d}),
							BaseTile:       bt,
							OverflowTarget: target,
							Workers:        2,
						}
						res, err := OptimizeCtx(context.Background(), k.e, k.inputs, o)
						if err != nil {
							t.Fatalf("%s %s d=%d base=%d target=%v: %v", mt.name, k.e, d, bt, target, err)
						}
						enc, err := encodeResult(res)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(h, "%s %s d=%d bt=%d target=%v\n", mt.name, k.e, d, bt, target)
						h.Write(enc)
						points++
						fd, uo := snapCollisions(t, k.e, res, o.withDefaults())
						fitDups += fd
						unfitOnes += uo
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != collisionGridDigest {
		t.Fatalf("Optimize over the %d collision points hashes to %s, want %s", points, got, collisionGridDigest)
	}
	if fitDups == 0 || unfitOnes == 0 {
		t.Fatalf("collision points cover %d fitting duplicates and %d non-fitting RF-1 duplicates; want both", fitDups, unfitOnes)
	}
}

// snapCollisions snaps every reorder factor's shape the way the sweep
// does and counts the fitting configs two RFs share, and the non-fitting
// configs the literal RF 1 shares with an earlier RF.
func snapCollisions(t *testing.T, e *einsum.Expr, res *Result, o Options) (fitDups, unfitOnes int) {
	t.Helper()
	pred, err := o.NewPredictor(e, res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	up, down := shapeAxes(e)
	var seen []model.Config
	for _, rf := range reorderFactors {
		cfg := model.Config{}
		for _, ix := range e.Order {
			cfg[ix] = res.BaseTile
		}
		cfg[up] = scaleDim(res.BaseTile, rf)
		for _, ix := range down {
			cfg[ix] = scaleDim(res.BaseTile, 1/rf)
		}
		cfg = pred.SnapConfigInPlace(cfg)
		if !slices.ContainsFunc(seen, func(c model.Config) bool { return maps.Equal(c, cfg) }) {
			seen = append(seen, cfg)
			continue
		}
		fits, err := sizing{pred: pred, e: e, o: o}.admits(cfg)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case fits:
			fitDups++
		//d2t2:ignore floatdeterminism rf ranges over the literal RFs; matching the literal 1 exactly is intended
		case rf == 1:
			unfitOnes++
		}
	}
	return fitDups, unfitOnes
}

// encodeResult is the canonical encoding TestOptimizeGridGolden hashes:
// JSON of every decision and prediction in r (maps sort their keys,
// floats print in their exact shortest form). The collected statistics
// and base tilings are left out; they feed every encoded field.
func encodeResult(r *Result) ([]byte, error) {
	return json.Marshal(struct {
		Kernel     string
		BaseTile   int
		Config     map[string]int
		RF         float64
		TileFactor int
		Risk       *RiskReport
		Predicted  *model.Prediction
		Candidates []Candidate
	}{r.Expr.String(), r.BaseTile, r.Config, r.RF, r.TileFactor, r.Risk, r.Predicted, r.Candidates})
}
