package optimizer

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/snapshot"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// TestOptimizeWorkersByteIdentical is the cold-pipeline determinism
// gate: the optimizer result, the portable statistics encoding, and the
// retiled snapshot artifacts must be byte-identical between Workers=1
// and Workers=8. Run with -race in CI to double as the parallel-path
// race check.
func TestOptimizeWorkersByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := gen.PowerLawGraph(r, 512, 8000, 1.6)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	buffer := tiling.DenseFootprintWords([]int{64, 64})

	run := func(workers int) (*Result, map[string]*tiling.TiledTensor) {
		res, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buffer, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := TileAllCtx(context.Background(), e, inputs, res.Config, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res, tiled
	}
	res1, tiled1 := run(1)
	res8, tiled8 := run(8)

	// Result equality covers Config, RF, TileFactor, every candidate's
	// prediction (float bit patterns included), and the collected Stats.
	if !reflect.DeepEqual(res1, res8) {
		t.Fatal("optimizer results differ between Workers=1 and Workers=8")
	}

	// Statistics bytes via the snapshot codec.
	for name, st := range res1.Stats {
		b1, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: st})
		if err != nil {
			t.Fatal(err)
		}
		b8, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: res8.Stats[name]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b8) {
			t.Fatalf("portable stats bytes for %q differ between worker counts", name)
		}
	}

	// Retiled snapshot artifacts.
	for name, tt := range tiled1 {
		b1, err := snapshot.EncodeBytes(&snapshot.Artifact{Tiled: tt})
		if err != nil {
			t.Fatal(err)
		}
		b8, err := snapshot.EncodeBytes(&snapshot.Artifact{Tiled: tiled8[name]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b8) {
			t.Fatalf("retiled snapshot bytes for %q differ between worker counts", name)
		}
	}
}

// TestOptimizeRepeatRunsByteIdentical guards against run-to-run
// nondeterminism at a fixed worker count (map iteration leaking into an
// encoding, for example): two independent parallel runs must produce
// identical portable bytes.
func TestOptimizeRepeatRunsByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := gen.UniformRandom(r, 300, 300, 5000)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	buffer := tiling.DenseFootprintWords([]int{64, 64})

	encode := func() []byte {
		res, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: buffer, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, name := range []string{"A", "B"} {
			b, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: res.Stats[name]})
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, b...)
		}
		return buf
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("repeated parallel runs produced different portable stats bytes")
	}
}
