package optimizer

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
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

// TestOptimizeGridGolden pins Optimize's output over a grid: four
// generator families, each as SpMSpM ikj and ijk (A, Aᵀ) and as the
// matrix of TTM, at dense 16/32/64 buffers and overflow targets 0 and
// 0.05. Every Result is encoded (kernel, base tile, config, RF,
// TileFactor, risk report, prediction and every candidate, floats in
// their exact shortest form) and the encodings are hashed in grid order,
// so the test fails when any one of them moves.
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
					res, err := Optimize(k.e, k.inputs, Options{
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
