package mmio

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/tensor"
)

// parseBodies are BenchmarkParse's inputs, shaped like d2t2d's cold
// uploads: a 1200² power-law matrix with 8 entries per row as .mtx and a
// 100³ 3-tensor with 12,000 entries as .tns, sorted, with values of at
// most four decimal digits.
func parseBodies(b *testing.B) map[string][]byte {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, 1200, 9600, 1.7)
	t := gen.RandomTensor3(r, 100, 100, 100, 12000, [3]float64{})
	var mtx, tns bytes.Buffer
	for _, x := range []*tensor.COO{m, t} {
		for p := range x.Vals {
			x.Vals[p] = float64(1+r.Intn(9999)) / 1000
		}
	}
	if err := WriteMatrixMarket(&mtx, m); err != nil {
		b.Fatal(err)
	}
	if err := WriteTNS(&tns, t); err != nil {
		b.Fatal(err)
	}
	return map[string][]byte{"mtx": mtx.Bytes(), "tns": tns.Bytes()}
}

// BenchmarkParse parses each body through ReadAny, the one-piece reader,
// and through ParseCtx, which fans the pieces out over -cpu workers.
func BenchmarkParse(b *testing.B) {
	for _, name := range []string{"mtx", "tns"} {
		body := parseBodies(b)[name]
		b.Run(name+"/ReadAny", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := ReadAny(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/ParseCtx", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := ParseCtx(context.Background(), body, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
