package optimizer

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// BenchmarkColdOptimize measures the full cold pipeline — conservative
// tiling, statistics collection, shape sweep, size growth — at several
// worker counts.
func BenchmarkColdOptimize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := gen.PowerLawGraph(r, 2048, 200_000, 1.7)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	buffer := tiling.DenseFootprintWords([]int{64, 64})
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buffer, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Config) == 0 {
					b.Fatal("empty config")
				}
			}
		})
	}
}

// BenchmarkWarmOptimize measures an optimize whose every lookup is a
// hit: both inputs' statistics bundles are resident (Precollected) and
// the search shares one predictor, whose shape, projection and
// prediction memos a first optimize has filled — the optimize most of
// d2t2d's measure ops run. Run it at -cpu 1,2 (Workers 0 follows
// GOMAXPROCS): the search's fan-outs over lookups should not make it
// slower at two.
func BenchmarkWarmOptimize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := gen.PowerLawGraph(r, 1200, 12_000, 1.7)
	a.Dedup()
	e := einsum.SpMSpMIKJ()
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	o := Options{BufferWords: tiling.DenseFootprintWords([]int{64, 64})}
	base, err := o.BaseTileFor(e, inputs)
	if err != nil {
		b.Fatal(err)
	}
	o.Precollected = make(map[string]*stats.Stats)
	for _, ref := range e.Inputs() {
		t := inputs[ref.Name]
		if o.Precollected[ref.Name], err = stats.CollectFinalizedCtx(context.Background(), t, []int{base, base}, e.LevelOrder(ref), nil); err != nil {
			b.Fatal(err)
		}
	}
	if o.Predictor, err = o.NewPredictor(e, o.Precollected); err != nil {
		b.Fatal(err)
	}
	want, err := OptimizeCtx(context.Background(), e, inputs, o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := OptimizeCtx(context.Background(), e, inputs, o)
		if err != nil {
			b.Fatal(err)
		}
		if res.TileFactor != want.TileFactor || len(res.Candidates) != len(want.Candidates) {
			b.Fatalf("warm optimize: tile factor %d over %d candidates, the first %d over %d",
				res.TileFactor, len(res.Candidates), want.TileFactor, len(want.Candidates))
		}
	}
}
