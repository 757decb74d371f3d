package d2t2

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"d2t2/internal/model"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

// countingCache is the in-process StatsCache, counting its bundle
// traffic.
type countingCache struct {
	memCache
	mu            sync.Mutex
	loads, stores int
}

func (c *countingCache) LoadStats(ctx context.Context, key string) (*stats.Stats, bool) {
	c.mu.Lock()
	c.loads++
	c.mu.Unlock()
	return c.memCache.LoadStats(ctx, key)
}

func (c *countingCache) StoreStats(ctx context.Context, key string, st *stats.Stats) {
	c.mu.Lock()
	c.stores++
	c.mu.Unlock()
	c.memCache.StoreStats(ctx, key, st)
}

// groupPredictor returns the batch's shared predictor for the group of
// an uncalibrated optimization of k under opts — a memo hit once a job
// of the group has run.
func groupPredictor(t *testing.T, b *Batch, k *Kernel, inputs Inputs, opts Options) *model.Predictor {
	t.Helper()
	o := opts.lower()
	base, err := o.BaseTileFor(k.expr, inputs.lower())
	if err != nil {
		t.Fatal(err)
	}
	pre, bundles, err := b.precollect(context.Background(), k, inputs, base, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.predictor(k, pre, bundles, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatchSharesBundles checks that a Batch consults the cache once
// per distinct bundle — not once per job and phase, though every job
// asks for its bundle at once — and that its concurrent optimizes
// return the plans a plain session returns.
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

	cache := &countingCache{}
	batch := NewSession(cache).NewBatch()
	ctx := context.Background()
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
		want, err := plain.OptimizeCtx(context.Background(), k, inputs, o)
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
// fewer configs than the group's jobs compute alone. The same jobs in a
// second batch on the session, whose bundles keep the predictions,
// give the same plans and compute no prediction.
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
		soloComputed[ks[i].String()] += groupPredictor(t, b, ks[i], inputs, opts[i]).Computed()
	}

	for _, workers := range []int{1, 8} {
		s := NewSession(nil)
		s.Workers = workers
		b := s.NewBatch()
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
		if n := b.preds.Len(); n != 2 {
			t.Fatalf("workers=%d: %d predictors for two groups", workers, n)
		}
		for _, i := range []int{0, len(ks) - 1} { // one job of each group
			pred, kernel := groupPredictor(t, b, ks[i], inputs, opts[i]), ks[i].String()
			if pred.Computed() != int64(pred.Kept()) {
				t.Fatalf("workers=%d %s: %d predictions computed for %d configs", workers, kernel, pred.Computed(), pred.Kept())
			}
			if solo := soloComputed[kernel]; pred.Computed() >= solo {
				t.Fatalf("workers=%d %s: the group computed %d predictions, its jobs alone %d", workers, kernel, pred.Computed(), solo)
			}
		}

		computed := map[string]int64{}
		for _, i := range []int{0, len(ks) - 1} {
			computed[ks[i].String()] = groupPredictor(t, b, ks[i], inputs, opts[i]).Computed()
		}
		again := s.NewBatch()
		for i := range ks {
			p, err := again.OptimizeCtx(ctx, ks[i], inputs, opts[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := planBytes(t, p); !bytes.Equal(got, alone[i]) {
				t.Fatalf("workers=%d job %d in a second batch: plan %s, alone %s", workers, i, got, alone[i])
			}
		}
		for _, i := range []int{0, len(ks) - 1} {
			pred, kernel := groupPredictor(t, again, ks[i], inputs, opts[i]), ks[i].String()
			if pred.Computed() != computed[kernel] {
				t.Fatalf("workers=%d %s: the second batch computed %d predictions again", workers, kernel, pred.Computed()-computed[kernel])
			}
		}
	}
}

// TestResidentPredictionsKeyedByContent optimizes one kernel over one
// host bundle with two co-operand bundles in turn, on one session: for
// SpMSpM ikj with B swapped, and for TTM with another factor. The group
// of the second shares no prediction with the first: it computes as
// many predictions as on a fresh session and plans as a fresh session
// does. Repeated in new batches, neither group computes again.
func TestResidentPredictionsKeyedByContent(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Dataset("U", 64)
	if err != nil {
		t.Fatal(err)
	}
	swapped := a.Transpose()
	for p := 0; p < 96; p += 5 {
		swapped.Set([]int{p, (7 * p) % 96}, 2)
	}
	swapped.Normalize()
	factor := func(step int) *Tensor {
		b := NewTensor(24, x.Dims()[2])
		for p := 0; p < x.Dims()[2]; p += step {
			b.Set([]int{p % 24, p}, float64(1+p%5))
		}
		b.Normalize()
		return b
	}
	ctx := context.Background()
	for _, tc := range []struct {
		k        *Kernel
		opts     Options
		variants []Inputs
	}{
		{Gustavson(), Options{BufferWords: DenseTileWords(32, 32)},
			[]Inputs{{"A": a, "B": a.Transpose()}, {"A": a, "B": swapped}}},
		{TTM(), Options{BufferWords: DenseTileWords(16, 16)},
			[]Inputs{{"C": x, "B": factor(3)}, {"C": x, "B": factor(2)}}},
	} {
		wantPlan := make([][]byte, len(tc.variants))
		wantComputed := make([]int64, len(tc.variants))
		for i, in := range tc.variants {
			b := NewSession(nil).NewBatch()
			p, err := b.OptimizeCtx(ctx, tc.k, in, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			wantPlan[i], wantComputed[i] = planBytes(t, p), groupPredictor(t, b, tc.k, in, tc.opts).Computed()
		}
		if bytes.Equal(wantPlan[0], wantPlan[1]) {
			t.Fatalf("%s: both co-operands give one plan; the test shows nothing", tc.k)
		}
		s := NewSession(nil)
		for round := 0; round < 2; round++ {
			for i, in := range tc.variants {
				b := s.NewBatch()
				p, err := b.OptimizeCtx(ctx, tc.k, in, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := planBytes(t, p); !bytes.Equal(got, wantPlan[i]) {
					t.Fatalf("%s round %d co-operand %d: plan %s, fresh session %s", tc.k, round, i, got, wantPlan[i])
				}
				if got := groupPredictor(t, b, tc.k, in, tc.opts).Computed(); got != wantComputed[i] {
					t.Fatalf("%s round %d co-operand %d: the group's table computed %d predictions, a fresh session %d",
						tc.k, round, i, got, wantComputed[i])
				}
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
	if n := b.preds.Len(); n != 1 {
		t.Fatalf("%d predictors after one plain job", n)
	}
	shared := groupPredictor(t, b, k, inputs, plain)
	computed, kept := shared.Computed(), shared.Kept()
	for i := 0; i < 2; i++ {
		if got := run(calib); !bytes.Equal(got, wantCalib[i]) {
			t.Fatalf("calibrated job %d: %s, want %s", i, got, wantCalib[i])
		}
	}
	if s.CalibrationBias(k, false) == 1 {
		t.Fatal("the calibrated jobs did not move the bias; the test shows nothing")
	}
	if b.preds.Len() != 1 || shared.Computed() != computed || shared.Kept() != kept {
		t.Fatalf("calibrated jobs reached the shared predictor: %d predictors, %d/%d computed, %d/%d kept",
			b.preds.Len(), shared.Computed(), computed, shared.Kept(), kept)
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

// collectOracle collects each input of k straight from stats.CollectCtx at
// a square tiling of side tile clamped per axis, in the level order of
// the input's first reference — the frame CollectStats and
// PredictConfig resolve through a Session.
func collectOracle(t *testing.T, k *Kernel, inputs Inputs, tile int) map[string]*stats.Stats {
	t.Helper()
	out := make(map[string]*stats.Stats)
	for _, ref := range k.expr.Inputs() {
		if out[ref.Name] != nil {
			continue
		}
		x := inputs[ref.Name]
		dims := make([]int, x.Order())
		for a := range dims {
			dims[a] = min(tile, x.Dims()[a])
		}
		st, _, err := stats.CollectCtx(context.Background(), x.coo, dims, k.expr.LevelOrder(ref), nil)
		if err != nil {
			t.Fatal(err)
		}
		out[ref.Name] = st
	}
	return out
}

// TestCollectStatsAndPredictConfigMatchCollect: the package-level
// CollectStats and PredictConfig, which run on a fresh Session, return
// what direct stats.CollectCtx statistics give — for kernels without a
// repeated operand and, for an operand referenced in two level orders,
// with the first reference's bundle.
func TestCollectStatsAndPredictConfigMatchCollect(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Dataset("U", 64)
	if err != nil {
		t.Fatal(err)
	}
	b := NewTensor(24, x.Dims()[2])
	for p := 0; p < x.Dims()[2]; p += 3 {
		b.Set([]int{p % 24, p}, float64(1+p%5))
	}
	b.Normalize()
	squared, err := ParseKernel("C(i,j) = A(i,k) * A(k,j) | order: i,j,k")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		k      *Kernel
		inputs Inputs
		cfg    TileConfig
	}{
		{Gustavson(), Inputs{"A": a, "B": a.Transpose()}, TileConfig{"i": 32, "k": 16, "j": 64}},
		{InnerProduct(), Inputs{"A": a, "B": a}, TileConfig{"i": 16, "j": 16, "k": 32}},
		{TTM(), Inputs{"C": x, "B": b}, TileConfig{"i": 8, "j": 8, "l": 16, "k": 8}},
		{squared, Inputs{"A": a}, TileConfig{"i": 32, "j": 32, "k": 32}},
	} {
		for _, tile := range []int{16, 64, 1 << 20} {
			st := collectOracle(t, tc.k, tc.inputs, tile)
			pred, err := model.New(tc.k.expr, st)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pred.Predict(model.Config(tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			got, err := PredictConfig(context.Background(), tc.k, tc.inputs, tc.cfg, tile)
			if err != nil {
				t.Fatal(err)
			}
			if want := p.Total() * 4 / (1 << 20); got != want {
				t.Fatalf("%s tile %d: PredictConfig %v MB, stats.CollectCtx oracle %v MB", tc.k, tile, got, want)
			}
			for name, in := range tc.inputs {
				dims := make([]int, in.Order())
				for a := range dims {
					dims[a] = min(tile, in.Dims()[a])
				}
				one, _, err := stats.CollectCtx(context.Background(), in.coo, dims, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := CollectStats(context.Background(), in, tile)
				if err != nil {
					t.Fatal(err)
				}
				if want := summarize(one, dims); !reflect.DeepEqual(sum, want) {
					t.Fatalf("%s tile %d: CollectStats(%s) %+v, stats.CollectCtx oracle %+v", tc.k, tile, name, sum, want)
				}
			}
		}
	}
}

// TestRawTensorCanonicalView: a tensor holding duplicate coordinates
// (dataset Q with every third entry Set twice) and its Normalized clone
// are one tensor to a Session. In one shared Session, whichever is
// asked first and also when both are asked at once, they give the IDs,
// statistics, predictions, plans and measured traffic a fresh Session
// gives the Normalized clone.
func TestRawTensorCanonicalView(t *testing.T) {
	q, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	newRaw := func() *Tensor {
		raw := NewTensor(q.Dims()...)
		for p := q.NNZ() - 1; p >= 0; p-- { // reversed: unsorted too
			crd, v := q.Entry(p)
			raw.Set(crd, v)
			if p%3 == 0 {
				raw.Set(crd, v)
			}
		}
		return raw
	}
	norm := newRaw().Clone()
	norm.Normalize()
	k := Gustavson()
	type result struct {
		id        string
		stats     *StatsSummary
		predicted float64
		plan      string
		measured  float64
	}
	run := func(sess *Session, x *Tensor) (r result, err error) {
		if r.id, err = sess.TensorID(x); err != nil {
			return r, err
		}
		if r.stats, err = sess.StatsCtx(context.Background(), x, 16); err != nil {
			return r, err
		}
		in := Inputs{"A": x, "B": x}
		if r.predicted, err = sess.PredictCtx(context.Background(), k, in, TileConfig{"i": 32, "j": 32, "k": 32}, 16); err != nil {
			return r, err
		}
		plan, err := sess.OptimizeCtx(context.Background(), k, in, Options{BufferWords: DenseTileWords(32, 32)})
		if err != nil {
			return r, err
		}
		b, err := json.Marshal(plan)
		if err != nil {
			return r, err
		}
		r.plan = string(b)
		rep, err := plan.MeasureCtx(context.Background())
		if err != nil {
			return r, err
		}
		r.measured = rep.TotalMB()
		return r, nil
	}
	want, err := run(NewSession(nil), norm)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got result) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v\nwant (Normalized clone, fresh Session) %+v", what, got, want)
		}
	}
	for _, rawFirst := range []bool{true, false} {
		sess, raw := NewSession(nil), newRaw()
		order := []*Tensor{norm, raw}
		if rawFirst {
			order = []*Tensor{raw, norm}
		}
		for _, x := range order {
			got, err := run(sess, x)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("raw first %v, raw %v", rawFirst, x == raw), got)
		}
	}
	sess, raw := NewSession(nil), newRaw()
	got := make([]result, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := raw
			if i%2 == 1 {
				x = norm
			}
			got[i], errs[i] = run(sess, x)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		check(fmt.Sprintf("concurrent asker %d", i), got[i])
	}
}
