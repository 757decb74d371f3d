package optimizer

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
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
