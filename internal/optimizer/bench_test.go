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
// GOMAXPROCS). Every lookup resolves on the calling goroutine and no
// fan-out starts, so a second core neither helps nor hurts it and it
// allocates as often at either: 66 allocs/op. On a 2-core host, 16
// alternating runs at -cpu 1 and -cpu 2 gave a ratio median of 1.01,
// with -cpu 2 faster in 7 (23–40 µs as the host's load varied). The
// fan-outs over lookups it used to start cost 216 allocs at -cpu 1 and
// 231 at -cpu 2, and made -cpu 2 the slower: 30 µs against 48 µs
// (medians of 8 interleaved runs).
func BenchmarkWarmOptimize(b *testing.B) {
	w := newWarmOptimize(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.run(b)
	}
}

// warmOptimize is the set-up of BenchmarkWarmOptimize and
// TestWarmOptimizeAllocs: an optimize through resident bundles and a
// shared predictor a first optimize has filled, and that first result.
type warmOptimize struct {
	e      *einsum.Expr
	inputs map[string]*tensor.COO
	o      Options
	want   *Result
}

func newWarmOptimize(tb testing.TB) *warmOptimize {
	r := rand.New(rand.NewSource(1))
	a := gen.PowerLawGraph(r, 1200, 12_000, 1.7)
	a.Dedup()
	w := &warmOptimize{e: einsum.SpMSpMIKJ(), inputs: map[string]*tensor.COO{"A": a, "B": a.Transpose()}}
	w.o = Options{BufferWords: tiling.DenseFootprintWords([]int{64, 64})}
	base, err := w.o.BaseTileFor(w.e, w.inputs)
	if err != nil {
		tb.Fatal(err)
	}
	w.o.Precollected = make(map[string]*stats.Stats)
	for _, ref := range w.e.Inputs() {
		t := w.inputs[ref.Name]
		if w.o.Precollected[ref.Name], err = stats.CollectFinalizedCtx(context.Background(), t, []int{base, base}, w.e.LevelOrder(ref), nil); err != nil {
			tb.Fatal(err)
		}
	}
	if w.o.Predictor, err = w.o.NewPredictor(w.e, w.o.Precollected); err != nil {
		tb.Fatal(err)
	}
	if w.want, err = OptimizeCtx(context.Background(), w.e, w.inputs, w.o); err != nil {
		tb.Fatal(err)
	}
	return w
}

// run optimizes again and checks the search made the first one's
// choice.
func (w *warmOptimize) run(tb testing.TB) {
	res, err := OptimizeCtx(context.Background(), w.e, w.inputs, w.o)
	if err != nil {
		tb.Fatal(err)
	}
	if res.TileFactor != w.want.TileFactor || len(res.Candidates) != len(w.want.Candidates) {
		tb.Fatalf("warm optimize: tile factor %d over %d candidates, the first %d over %d",
			res.TileFactor, len(res.Candidates), w.want.TileFactor, len(w.want.Candidates))
	}
}
