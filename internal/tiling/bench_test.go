package tiling

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/gen"
)

// BenchmarkTilingNew measures the radix group-by tiler on a power-law
// matrix at several worker counts (the old path was a global comparison
// sort; Workers=1 exercises the serial group-by).
func BenchmarkTilingNew(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, 2048, 200_000, 1.7)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tt, err := NewCtx(context.Background(), m, []int{64, 64}, []int{0, 1}, workers)
				if err != nil {
					b.Fatal(err)
				}
				if tt.NumTiles() == 0 {
					b.Fatal("no tiles")
				}
			}
		})
	}
}

// BenchmarkSummarize measures the summary-only tiler at micro-sized
// tiles, where each tile is a sort of a few entries: a 1200² power-law
// matrix with about 8 nonzeros per row, tiled 8×8. Two workers should
// beat one; a fan-out item per tile made them slower.
func BenchmarkSummarize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, 1200, 9600, 1.7)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum, err := SummarizeCtx(context.Background(), m, []int{8, 8}, []int{0, 1}, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(sum.Keys) == 0 {
					b.Fatal("no tiles")
				}
			}
		})
	}
}
