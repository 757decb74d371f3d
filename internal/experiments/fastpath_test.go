package experiments

import (
	"context"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
)

// TestMeasureConfigUsesEngine pins the experiment harness to the
// compiled measurement engine: every standard paper kernel the figures
// sweep must take the specialized fast path, not the generic walker.
// If a kernel silently falls back, the figure sweeps get slower by an
// order of magnitude — this catches that regression directly.
func TestMeasureConfigUsesEngine(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := gen.PowerLawGraph(r, 64, 600, 1.6)
	c3 := gen.RandomTensor3(r, 16, 12, 10, 300, [3]float64{0, 0, 0})
	cases := []struct {
		name   string
		expr   *einsum.Expr
		inputs map[string]*tensor.COO
		cfg    model.Config
	}{
		{
			name:   "SpMSpMIKJ",
			expr:   einsum.SpMSpMIKJ(),
			inputs: map[string]*tensor.COO{"A": a, "B": a.Transpose()},
			cfg:    model.Config{"i": 8, "k": 8, "j": 8},
		},
		{
			name: "TTM",
			expr: einsum.TTM(),
			inputs: map[string]*tensor.COO{
				"C": c3,
				"B": gen.UniformRandom(r, 8, 10, 40),
			},
			cfg: model.Config{"i": 4, "j": 4, "l": 4, "k": 4},
		},
		{
			name: "MTTKRP",
			expr: einsum.MTTKRP3(),
			inputs: map[string]*tensor.COO{
				"A": c3,
				"B": gen.UniformRandom(r, 9, 12, 40),
				"C": gen.UniformRandom(r, 9, 10, 36),
			},
			cfg: model.Config{"i": 4, "k": 4, "l": 4, "j": 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := measureConfig(context.Background(), nil, tc.expr, tc.inputs, tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Specialized {
				t.Fatal("measureConfig fell back to the generic walker")
			}
			if res.MACs == 0 {
				t.Fatal("no MACs counted")
			}
		})
	}
}
