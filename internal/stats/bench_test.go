package stats

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// BenchmarkCollectFromTiled measures the full statistics pass (including
// the micro-tile summary retiling) at several worker counts, on a
// power-law matrix, whose entries bring few repeated pair hashes, and
// on a banded one, where a row's entries in one column tile repeat one.
func BenchmarkCollectFromTiled(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		m    *tensor.COO
	}{
		{"powerlaw", gen.PowerLawGraph(r, 2048, 200_000, 1.7)},
		{"banded", gen.Banded(r, 4096, 32, 48)},
	} {
		b.Run(tc.name, func(b *testing.B) { benchCollectFromTiled(b, tc.m) })
	}
}

func benchCollectFromTiled(b *testing.B, m *tensor.COO) {
	tt, err := tiling.NewCtx(context.Background(), m, []int{64, 64}, []int{0, 1}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := CollectFromTiledCtx(context.Background(), m, tt, &Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if s.NumTiles == 0 {
					b.Fatal("no tiles")
				}
			}
		})
	}
}

// BenchmarkCorrsFinalize measures the Corrs overlap count on a gathered
// accumulator along each axis of a power-law matrix, against the
// pairwise-merge oracle it replaced.
func BenchmarkCorrsFinalize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, 1200, 100_000, 1.7)
	for ax := range m.Dims {
		rest, err := corrRestGrid(m.Dims, ax)
		if err != nil {
			b.Fatal(err)
		}
		pl := newCorrPlan(m.Dims[ax], 128, 512)
		off, flat := pl.gather(m, ax, rest)
		for _, k := range []struct {
			name string
			run  func(*corrPlan, []int32, []uint64) []float64
		}{{"inverted", func(pl *corrPlan, off []int32, flat []uint64) []float64 {
			return pl.finalize(off, flat, rest.Size())
		}}, {"pairwise", finalizePairwise}} {
			b.Run(fmt.Sprintf("axis=%d/%s", ax, k.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if c := k.run(pl, off, flat); c[0] != 1 {
						b.Fatal("Corrs not normalized")
					}
				}
			})
		}
	}
}

// BenchmarkEvalShape measures one unmemoized shape evaluation on a
// 2048² power-law matrix at MicroDiv 8: the micro-key group-by at a
// square and a skewed shape, and the same shapes' coarsenings derived
// from them once they are memoized.
func BenchmarkEvalShape(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, 2048, 200_000, 1.7)
	for _, c := range []struct{ parent, shape []int }{
		{nil, []int{64, 64}},
		{nil, []int{16, 256}},
		{[]int{64, 64}, []int{128, 128}},
		{[]int{16, 256}, []int{32, 512}},
	} {
		s, _, err := CollectCtx(context.Background(), m, []int{64, 64}, []int{0, 1}, &Options{MicroDiv: 8})
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("micro/shape=%dx%d", c.shape[0], c.shape[1])
		if c.parent != nil {
			if _, err := s.EvalShape(c.parent); err != nil {
				b.Fatal(err)
			}
			name = fmt.Sprintf("derived/shape=%dx%d", c.shape[0], c.shape[1])
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sh, err := s.evalShape(c.shape); err != nil || sh.NumTiles == 0 {
					b.Fatalf("evalShape: %v", err)
				}
			}
		})
	}
}
