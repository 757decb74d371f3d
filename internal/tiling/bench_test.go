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
