package exec

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// FuzzEngineVsWalker drives the engine-vs-walker differential with
// fuzzer-chosen shapes of the paper's kernels (SpMSpM ikj and ijk,
// SDDMM, TTM, MTTKRP): small random COO inputs on dims up to 2048 and
// tile sizes up to full width, so plans land on both output-counting
// paths (dense stamps and the coordinate list) and on the walker
// fallback past the head-table cap. The engine's Traffic and collected
// output must match the ForceGeneric walker's byte for byte.
func FuzzEngineVsWalker(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(2047), uint16(2047), uint16(2047), uint16(2047), uint16(2047), uint16(2047), uint8(200), uint8(0))
	f.Add(int64(2), uint8(1), uint16(1100), uint16(700), uint16(1100), uint16(1100), uint16(64), uint16(1100), uint8(120), uint8(9))
	f.Add(int64(3), uint8(3), uint16(150), uint16(40), uint16(150), uint16(150), uint16(7), uint16(150), uint8(90), uint8(0))
	f.Add(int64(4), uint8(0), uint16(40), uint16(30), uint16(50), uint16(3), uint16(5), uint16(4), uint8(60), uint8(13))
	f.Add(int64(5), uint8(2), uint16(1500), uint16(900), uint16(1500), uint16(1500), uint16(30), uint16(1500), uint8(250), uint8(0))
	f.Add(int64(6), uint8(4), uint16(1200), uint16(300), uint16(1200), uint16(1200), uint16(300), uint16(1200), uint8(250), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, kernel uint8, dI, dK, dJ, tI, tK, tJ uint16, nnz, obuf uint8) {
		ni, nk, nj := 1+int(dI)%2048, 1+int(dK)%2048, 1+int(dJ)%2048
		tiles := map[string]int{"i": 1 + int(tI)%ni, "k": 1 + int(tK)%nk, "j": 1 + int(tJ)%nj}
		r := rand.New(rand.NewSource(seed))
		var e *einsum.Expr
		var inputs map[string]*tensor.COO
		switch kernel % 5 {
		case 0:
			e = einsum.SpMSpMIKJ()
			inputs = map[string]*tensor.COO{
				"A": gen.UniformRandom(r, ni, nk, int(nnz)),
				"B": gen.UniformRandom(r, nk, nj, int(nnz)),
			}
		case 1:
			e = einsum.SpMSpMIJK()
			inputs = map[string]*tensor.COO{
				"A": gen.UniformRandom(r, ni, nk, int(nnz)),
				"B": gen.UniformRandom(r, nj, nk, int(nnz)),
			}
		case 2:
			e = einsum.SDDMM() // E(i,j) = S(i,j)*A(i,k)*B(k,j)
			inputs = map[string]*tensor.COO{
				"S": gen.UniformRandom(r, ni, nj, int(nnz)),
				"A": gen.UniformRandom(r, ni, nk, int(nnz)),
				"B": gen.UniformRandom(r, nk, nj, int(nnz)),
			}
		case 3:
			// X(i,j,k) = C(i,j,l)*B(k,l), with the fuzzed k axis as the
			// contraction l and a third of the fuzzed j width as k.
			e = einsum.TTM()
			nk3 := 1 + nj/3
			tiles["l"], tiles["k"] = tiles["k"], 1+int(tJ)%nk3
			inputs = map[string]*tensor.COO{
				"C": gen.RandomTensor3(r, ni, nj, nk, int(nnz), [3]float64{}),
				"B": gen.UniformRandom(r, nk3, nk, int(nnz)),
			}
		default:
			// D(i,j) = A(i,k,l)*B(j,k)*C(j,l), with l a third of the
			// fuzzed k width.
			e = einsum.MTTKRP3()
			nl := 1 + nk/3
			tiles["l"] = 1 + int(tK)%nl
			inputs = map[string]*tensor.COO{
				"A": gen.RandomTensor3(r, ni, nk, nl, int(nnz), [3]float64{}),
				"B": gen.UniformRandom(r, nj, nk, int(nnz)),
				"C": gen.UniformRandom(r, nj, nl, int(nnz)),
			}
		}
		tens := make(map[string]*tiling.TiledTensor, len(inputs))
		for name, m := range inputs {
			tens[name] = tileFor(t, e, name, m, tiles)
		}
		opts := Options{CollectOutput: true, OutputBufferWords: int(obuf)}
		want, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true, OutputBufferWords: int(obuf), ForceGeneric: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			opts.Workers = workers
			got, err := MeasureCtx(context.Background(), e, tens, &opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Traffic, want.Traffic) {
				t.Fatalf("workers=%d tiles=%v: traffic diverges from walker:\n got %+v\nwant %+v",
					workers, tiles, got.Traffic, want.Traffic)
			}
			if !tensor.Equal(got.Out, want.Out) {
				t.Fatalf("workers=%d tiles=%v: collected output diverges from walker", workers, tiles)
			}
		}
	})
}
