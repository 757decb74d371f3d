package schemes

import (
	"context"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

func buf(t int) int { return tiling.DenseFootprintWords([]int{t, t}) }

func inputsAAT(seed int64, build func(r *rand.Rand) *tensor.COO) map[string]*tensor.COO {
	r := rand.New(rand.NewSource(seed))
	a := build(r)
	return map[string]*tensor.COO{"A": a, "B": a.Transpose()}
}

func TestConservative(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	cfg := Conservative(e, buf(32))
	for _, ix := range []string{"i", "k", "j"} {
		if cfg[ix] != 32 {
			t.Fatalf("conservative cfg[%s] = %d, want 32", ix, cfg[ix])
		}
	}
	// Order-3 kernel: the 3-d dense tile bound applies.
	e3 := einsum.TTM()
	cfg3 := Conservative(e3, tiling.DenseFootprintWords([]int{8, 8, 8}))
	if cfg3["i"] != 8 {
		t.Fatalf("3-d conservative tile = %d, want 8", cfg3["i"])
	}
}

func TestPrescientLargerThanConservativeOnSparse(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	inputs := inputsAAT(81, func(r *rand.Rand) *tensor.COO {
		return gen.UniformRandom(r, 1024, 1024, 2000) // very sparse
	})
	cfg, err := Prescient(context.Background(), e, inputs, buf(32))
	if err != nil {
		t.Fatal(err)
	}
	if cfg["i"] <= 32 {
		t.Fatalf("prescient tile %d not larger than conservative 32 on sparse data", cfg["i"])
	}
	// The guarantee: actual max tile fits.
	fp, err := maxTileAt(context.Background(), e, inputs, cfg["i"])
	if err != nil {
		t.Fatal(err)
	}
	if fp > buf(32) {
		t.Fatalf("prescient tile %d overflows: %d > %d", cfg["i"], fp, buf(32))
	}
}

func TestPrescientDenseEqualsConservative(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	dense := tensor.New(128, 128)
	for i := 0; i < 128; i++ {
		for j := 0; j < 128; j++ {
			dense.Append([]int{i, j}, 1)
		}
	}
	inputs := map[string]*tensor.COO{"A": dense, "B": dense.Clone()}
	cfg, err := Prescient(context.Background(), e, inputs, buf(32))
	if err != nil {
		t.Fatal(err)
	}
	// Fully dense data: nothing bigger than the conservative tile fits.
	if cfg["i"] != 32 {
		t.Fatalf("prescient on dense = %d, want 32", cfg["i"])
	}
}

func TestTailorsOverbooks(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	// Power-law data: a few heavy tiles, most tiny — the Tailors sweet
	// spot: big tiles with a bounded overflow fraction.
	inputs := inputsAAT(82, func(r *rand.Rand) *tensor.COO {
		return gen.PowerLawGraph(r, 1024, 6000, 1.9)
	})
	cfg, info, err := Tailors(context.Background(), e, inputs, buf(32), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Prescient(context.Background(), e, inputs, buf(32))
	if err != nil {
		t.Fatal(err)
	}
	if cfg["i"] < pres["i"] {
		t.Fatalf("tailors tile %d smaller than prescient %d", cfg["i"], pres["i"])
	}
	if info.OverflowRate > 0.10 {
		t.Fatalf("overbooking rate %v exceeds budget", info.OverflowRate)
	}
	if info.TileSize != cfg["i"] {
		t.Fatalf("info.TileSize %d != config %d", info.TileSize, cfg["i"])
	}
}

func TestTailorsDefaultsRate(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	inputs := inputsAAT(83, func(r *rand.Rand) *tensor.COO {
		return gen.UniformRandom(r, 256, 256, 1000)
	})
	_, info, err := Tailors(context.Background(), e, inputs, buf(32), 0)
	if err != nil {
		t.Fatal(err)
	}
	if info == nil {
		t.Fatal("no info returned")
	}
}

func TestSchemesMissingInput(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	if _, err := Prescient(context.Background(), e, map[string]*tensor.COO{}, buf(32)); err == nil {
		t.Fatal("missing input accepted by Prescient")
	}
	if _, _, err := Tailors(context.Background(), e, map[string]*tensor.COO{}, buf(32), 0.1); err == nil {
		t.Fatal("missing input accepted by Tailors")
	}
}
