package exec

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/tiling"
)

// benchMeasure runs one kernel under both backends so the engine's
// speedup over the generic walker is a single benchcmp away:
//
//	go test -bench Measure -benchmem ./internal/exec
func benchMeasure(b *testing.B, e *einsum.Expr, tens map[string]*tiling.TiledTensor) {
	b.Helper()
	for _, mode := range []struct {
		name    string
		generic bool
	}{{"generic", true}, {"engine", false}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := &Options{ForceGeneric: mode.generic, Workers: 1}
			// One warm run outside the timer: the engine predecodes
			// tile entries on first contact, the walker populates its
			// entry cache.
			if res, err := MeasureCtx(context.Background(), e, tens, opts); err != nil {
				b.Fatal(err)
			} else if res.Specialized == mode.generic {
				b.Fatalf("Specialized=%v under generic=%v", res.Specialized, mode.generic)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MeasureCtx(context.Background(), e, tens, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMeasureSpMSpM(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	a := gen.PowerLawGraph(r, 512, 10000, 1.6)
	e := einsum.SpMSpMIKJ()
	tiles := map[string]int{"i": 32, "k": 32, "j": 32}
	benchMeasure(b, e, map[string]*tiling.TiledTensor{
		"A": tileFor(b, e, "A", a, tiles),
		"B": tileFor(b, e, "B", a.Transpose(), tiles),
	})

	// The shape d2t2d measures: i and j span the matrix and only k is
	// tiled, so the outermost loop has one value. The engine runs on
	// GOMAXPROCS workers, so -cpu 1,2 shows whether the second core
	// helps. Each case tiles its operands afresh.
	big := gen.UniformRandom(r, 1020, 1020, 8160)
	one := map[string]int{"i": 1020, "k": 128, "j": 1020}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(b, e, "A", big, one),
		"B": tileFor(b, e, "B", big.Transpose(), one),
	}
	b.Run("OneOuterTile", func(b *testing.B) {
		opts := &Options{Workers: runtime.GOMAXPROCS(0)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MeasureCtx(context.Background(), e, tens, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMeasureTTM(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	c := gen.RandomTensor3(r, 96, 80, 64, 20000, [3]float64{0, 0, 0})
	m := gen.UniformRandom(r, 64, 64, 2000)
	e := einsum.TTM()
	benchMeasure(b, e, map[string]*tiling.TiledTensor{
		"C": tileFor(b, e, "C", c, map[string]int{"i": 16, "j": 16, "l": 16}),
		"B": tileFor(b, e, "B", m, map[string]int{"k": 16, "l": 16}),
	})
}

func BenchmarkMeasureMTTKRP(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	a := gen.RandomTensor3(r, 96, 64, 48, 15000, [3]float64{0, 0, 0})
	bm := gen.UniformRandom(r, 48, 64, 1500)
	cm := gen.UniformRandom(r, 48, 48, 1200)
	e := einsum.MTTKRP3()
	benchMeasure(b, e, map[string]*tiling.TiledTensor{
		"A": tileFor(b, e, "A", a, map[string]int{"i": 16, "k": 16, "l": 16}),
		"B": tileFor(b, e, "B", bm, map[string]int{"j": 16, "k": 16}),
		"C": tileFor(b, e, "C", cm, map[string]int{"j": 16, "l": 16}),
	})
}

func BenchmarkMeasureSDDMM(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	n := 384
	s := gen.UniformRandom(r, n, n, 6000)
	a := gen.UniformRandom(r, n, 64, 8000)
	bm := gen.UniformRandom(r, 64, n, 8000)
	e := einsum.SDDMM()
	benchMeasure(b, e, map[string]*tiling.TiledTensor{
		"S": tileFor(b, e, "S", s, map[string]int{"i": 16, "j": 16, "k": 16}),
		"A": tileFor(b, e, "A", a, map[string]int{"i": 16, "k": 16}),
		"B": tileFor(b, e, "B", bm, map[string]int{"k": 16, "j": 16}),
	})
}
