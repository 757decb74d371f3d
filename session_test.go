package d2t2

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"d2t2/internal/model"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

// countingCache is a StatsCache that counts its traffic.
type countingCache struct {
	mu            sync.Mutex
	m             map[string]*stats.Stats
	loads, stores int
}

func (c *countingCache) LoadStats(_ context.Context, key string) (*stats.Stats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loads++
	st, ok := c.m[key]
	return st, ok
}

func (c *countingCache) StoreStats(_ context.Context, key string, st *stats.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	c.m[key] = st
}

// TestBatchSharesBundles checks that a Batch consults the cache once
// per distinct bundle — not once per job and phase — and that its
// concurrent optimizes return the plans a plain session returns.
func TestBatchSharesBundles(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a}
	k := Gustavson()
	var opts []Options
	for _, tile := range []int{32, 16} { // two base tiles: two bundles
		for i := 0; i < 4; i++ {
			opts = append(opts, Options{BufferWords: DenseTileWords(tile, tile) + 61*i})
		}
	}
	const bundles = 2

	cache := &countingCache{m: make(map[string]*stats.Stats)}
	batch := NewSession(cache).NewBatch()
	ctx := context.Background()
	for _, o := range opts {
		if err := batch.PrecollectCtx(ctx, k, inputs, o); err != nil {
			t.Fatal(err)
		}
	}
	plans := make([]*Plan, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func(i int, o Options) {
			defer wg.Done()
			plans[i], errs[i] = batch.OptimizeCtx(ctx, k, inputs, o)
		}(i, o)
	}
	wg.Wait()
	if cache.loads != bundles || cache.stores != bundles {
		t.Fatalf("%d jobs made %d cache loads and %d stores, want %d each", len(opts), cache.loads, cache.stores, bundles)
	}
	plain := NewSession(nil)
	for i, o := range opts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := plain.Optimize(k, inputs, o)
		if err != nil {
			t.Fatal(err)
		}
		got := plans[i]
		if !reflect.DeepEqual(got.Config, want.Config) || got.BaseTile != want.BaseTile || got.RF != want.RF ||
			got.TileFactor != want.TileFactor || got.PredictedMB != want.PredictedMB {
			t.Fatalf("job %d: batch plan %+v, session plan %+v", i, got, want)
		}
	}
}

// updateBatch is an update-like batch over one tensor: Gustavson at
// eight buffers in one Conservative band and inner product at eight
// buffers one band lower — two groups of eight jobs, each group sharing
// its bundles and so its predictor.
func updateBatch() (ks []*Kernel, opts []Options) {
	for _, g := range []struct {
		k    *Kernel
		tile int
	}{{Gustavson(), 32}, {InnerProduct(), 16}} {
		for i := 0; i < 8; i++ {
			ks = append(ks, g.k)
			opts = append(opts, Options{BufferWords: DenseTileWords(g.tile, g.tile) + 97*i})
		}
	}
	return ks, opts
}

// planBytes is the JSON of a plan's exported fields, the part a d2t2d
// response is built from.
func planBytes(t *testing.T, p *Plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchSharesPredictors runs an update-like 16-job batch
// concurrently at 1 and 8 workers. Every plan is byte-identical to the
// job run alone on a fresh Session; the batch builds one predictor per
// group; each shared predictor computed every config it kept once, and
// fewer configs than the group's jobs compute alone.
func TestBatchSharesPredictors(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a.Transpose()}
	ks, opts := updateBatch()
	ctx := context.Background()

	alone := make([][]byte, len(ks))
	soloComputed := map[string]int64{}
	for i := range ks {
		b := NewSession(nil).NewBatch()
		p, err := b.OptimizeCtx(ctx, ks[i], inputs, opts[i])
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = planBytes(t, p)
		for _, pred := range b.preds {
			soloComputed[ks[i].String()] += pred.Computed()
		}
	}

	for _, workers := range []int{1, 8} {
		s := NewSession(nil)
		s.Workers = workers
		b := s.NewBatch()
		for i := range ks {
			if err := b.PrecollectCtx(ctx, ks[i], inputs, opts[i]); err != nil {
				t.Fatal(err)
			}
		}
		plans := make([]*Plan, len(ks))
		errs := make([]error, len(ks))
		var wg sync.WaitGroup
		for i := range ks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				plans[i], errs[i] = b.OptimizeCtx(ctx, ks[i], inputs, opts[i])
			}(i)
		}
		wg.Wait()
		for i := range ks {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got := planBytes(t, plans[i]); !bytes.Equal(got, alone[i]) {
				t.Fatalf("workers=%d job %d: batch plan %s, alone %s", workers, i, got, alone[i])
			}
		}
		if len(b.preds) != 2 {
			t.Fatalf("workers=%d: %d predictors for two groups", workers, len(b.preds))
		}
		for key, pred := range b.preds {
			if pred.Computed() != int64(pred.Kept()) {
				t.Fatalf("workers=%d %s: %d predictions computed for %d configs", workers, key.kernel, pred.Computed(), pred.Kept())
			}
			if solo := soloComputed[key.kernel]; pred.Computed() >= solo {
				t.Fatalf("workers=%d %s: the group computed %d predictions, its jobs alone %d", workers, key.kernel, pred.Computed(), solo)
			}
		}
	}
}

// TestBatchCalibratedJobsDoNotShare runs calibrated jobs between plain
// ones in one batch. The calibrated jobs neither use nor feed the
// group's predictor: the plain jobs' plans stay those of a fresh session
// as the bias moves, and the calibrated plans are those of a session
// that ran only them.
func TestBatchCalibratedJobsDoNotShare(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a.Transpose()}
	k := Gustavson()
	plain := Options{BufferWords: DenseTileWords(32, 32)}
	calib := plain
	calib.Calibrate = true
	ctx := context.Background()

	ref := NewSession(nil)
	wantPlain, err := NewSession(nil).OptimizeCtx(ctx, k, inputs, plain)
	if err != nil {
		t.Fatal(err)
	}
	var wantCalib [][]byte
	for i := 0; i < 2; i++ {
		p, err := ref.OptimizeCtx(ctx, k, inputs, calib)
		if err != nil {
			t.Fatal(err)
		}
		wantCalib = append(wantCalib, planBytes(t, p))
	}

	s := NewSession(nil)
	b := s.NewBatch()
	run := func(o Options) []byte {
		p, err := b.OptimizeCtx(ctx, k, inputs, o)
		if err != nil {
			t.Fatal(err)
		}
		return planBytes(t, p)
	}
	if got := run(plain); !bytes.Equal(got, planBytes(t, wantPlain)) {
		t.Fatalf("plain job: %s, want %s", got, planBytes(t, wantPlain))
	}
	if len(b.preds) != 1 {
		t.Fatalf("%d predictors after one plain job", len(b.preds))
	}
	var shared *model.Predictor
	for _, p := range b.preds {
		shared = p
	}
	computed, kept := shared.Computed(), shared.Kept()
	for i := 0; i < 2; i++ {
		if got := run(calib); !bytes.Equal(got, wantCalib[i]) {
			t.Fatalf("calibrated job %d: %s, want %s", i, got, wantCalib[i])
		}
	}
	if s.CalibrationBias(k, false) == 1 {
		t.Fatal("the calibrated jobs did not move the bias; the test shows nothing")
	}
	if len(b.preds) != 1 || shared.Computed() != computed || shared.Kept() != kept {
		t.Fatalf("calibrated jobs reached the shared predictor: %d predictors, %d/%d computed, %d/%d kept",
			len(b.preds), shared.Computed(), computed, shared.Kept(), kept)
	}
	if got := run(plain); !bytes.Equal(got, planBytes(t, wantPlain)) || shared.Computed() != computed {
		t.Fatalf("plain job after calibration: %s (computed %d, was %d), want %s from the memo",
			got, shared.Computed(), computed, planBytes(t, wantPlain))
	}
}

// TestDeltaArtifactEncodedOnce checks the tensor DeltaCtx returns hands
// over the artifact encoded with its ID: the same ID and bytes a
// separate TensorID and EncodeBytes of the new version give, and the
// same again once the handed-over bytes are taken.
func TestDeltaArtifactEncodedOnce(t *testing.T) {
	base, err := Dataset("Q", 64)
	if err != nil {
		t.Fatal(err)
	}
	base.Normalize()
	delta := NewTensor(base.Dims()...)
	for p := 0; p < base.NNZ() && delta.NNZ() < 8; p++ {
		c, _ := base.Entry(p)
		if c[0] != c[1] {
			continue
		}
		// The diagonal entry one row down is free when the base lacks it.
		next := []int{(c[0] + 1) % base.Dims()[0], c[1]}
		if !hasEntry(base, next) {
			delta.Set(next, 1)
		}
	}
	if delta.NNZ() == 0 {
		t.Fatal("no free coordinate for the delta")
	}
	delta.Normalize()
	s := NewSession(nil)
	nt, _, err := s.DeltaCtx(context.Background(), base, delta, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := snapshot.TensorID(nt.coo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := snapshot.EncodeBytes(&snapshot.Artifact{Tensor: nt.coo})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		id, art, err := s.TensorArtifact(nt)
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID || !bytes.Equal(art, want) {
			t.Fatalf("call %d: id %s and %d artifact bytes, want %s and EncodeBytes' %d", call, id, len(art), wantID, len(want))
		}
		if nt.artifact.Load() != nil {
			t.Fatalf("call %d left the artifact on the tensor", call)
		}
	}
}

func hasEntry(t *Tensor, c []int) bool {
	for p := 0; p < t.NNZ(); p++ {
		if e, _ := t.Entry(p); e[0] == c[0] && e[1] == c[1] {
			return true
		}
	}
	return false
}
