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

// TestMixedHitSweep: a shared predictor primed by an optimize at a
// smaller buffer of the same base tile holds some of the RF sweep's
// predictions and misses the others, the RFs that fit only the larger
// buffer. An optimize at the larger buffer through it, whose sweep
// resolves its hits on the caller and fans out its misses, gives the
// result a private cold optimize gives, at Workers 1 and 8.
func TestMixedHitSweep(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	a := gen.PowerLawGraph(r, 512, 8000, 1.6)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIJK()
	small, large := tiling.DenseFootprintWords([]int{32, 32}), tiling.DenseFootprintWords([]int{64, 64})-1
	for _, workers := range []int{1, 8} {
		cold, err := OptimizeCtx(context.Background(), e, inputs, Options{BufferWords: large, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		o := Options{BufferWords: small, Workers: workers}
		primed, err := OptimizeCtx(context.Background(), e, inputs, o)
		if err != nil {
			t.Fatal(err)
		}
		if primed.BaseTile != cold.BaseTile {
			t.Fatalf("buffers %d and %d tile at %d and %d", small, large, primed.BaseTile, cold.BaseTile)
		}
		o.Precollected = primed.Stats
		if o.Predictor, err = o.NewPredictor(e, primed.Stats); err != nil {
			t.Fatal(err)
		}
		if _, err := OptimizeCtx(context.Background(), e, nil, o); err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, c := range cold.Candidates {
			if o.Predictor.PredictionLanded(c.Config) {
				hits++
			}
		}
		if misses := len(cold.Candidates) - hits; hits == 0 || misses < 2 {
			t.Fatalf("workers=%d: the primed predictor holds %d of the sweep's %d predictions; want some hits and two misses",
				workers, hits, len(cold.Candidates))
		}
		o.BufferWords = large
		res, err := OptimizeCtx(context.Background(), e, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.RF != cold.RF || res.TileFactor != cold.TileFactor || !reflect.DeepEqual(res.Config, cold.Config) ||
			!reflect.DeepEqual(res.Predicted, cold.Predicted) || !reflect.DeepEqual(res.Candidates, cold.Candidates) {
			t.Fatalf("workers=%d: the mixed-hit sweep chose %v (RF %v, tf %d) over %d candidates, the cold optimize %v (RF %v, tf %d) over %d",
				workers, res.Config, res.RF, res.TileFactor, len(res.Candidates), cold.Config, cold.RF, cold.TileFactor, len(cold.Candidates))
		}
		t.Logf("workers=%d: %d of %d sweep predictions hit", workers, hits, len(cold.Candidates))
	}
}
