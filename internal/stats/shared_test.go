// Tests for sharing one decoded statistics bundle, and its EvalShape
// memo, across concurrent consumers. External test package: the
// references are freshly decoded bundles (through the snapshot codec)
// and full optimizer searches.
package stats_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// decoder returns a function yielding a freshly decoded copy of st per
// call — a bundle with an empty shape memo.
func decoder(t *testing.T, st *stats.Stats) func() *stats.Stats {
	enc := statsBytes(t, st)
	return func() *stats.Stats {
		a, err := snapshot.DecodeBytes(enc)
		if err != nil || a.Stats == nil {
			t.Fatalf("decode stats: %v", err)
		}
		return a.Stats
	}
}

// plan is the part of an optimizer result a response is built from.
type plan struct {
	BaseTile   int
	Config     model.Config
	RF         float64
	TileFactor int
	Risk       *optimizer.RiskReport
	Predicted  *model.Prediction
	Candidates []optimizer.Candidate
}

func planOf(r *optimizer.Result) plan {
	return plan{r.BaseTile, r.Config, r.RF, r.TileFactor, r.Risk, r.Predicted, r.Candidates}
}

// TestSharedBundleOptimizeMatchesFresh runs concurrent optimizer
// searches — distinct buffers in one Conservative band, conservative and
// overbooked — over ONE shared bundle, at 1 and 8 workers, and checks
// each plan deep-equals the same search over a freshly decoded bundle.
// Alongside the searches, goroutines project the bundle's shapes on
// every axis-set pair: all of them must get one memoized table per pair,
// equal to a fresh bundle's. The shared bundle's shape memo must stay
// within its cap.
func TestSharedBundleOptimizeMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m := gen.PowerLawGraph(r, 512, 6000, 1.5)
	e := einsum.MustParse("C(i,j) = A(i,k) * B(k,j) | order: i,k,j")
	inputs := map[string]*tensor.COO{"A": m, "B": m}
	st, _, err := stats.Collect(m, []int{32, 32}, []int{0, 1}, &stats.Options{MicroDiv: 8})
	if err != nil {
		t.Fatal(err)
	}
	fresh := decoder(t, st)
	dense := tiling.DenseFootprintWords([]int{32, 32})
	opts := func(i, workers int, st *stats.Stats) optimizer.Options {
		o := optimizer.Options{
			BufferWords:  dense + 97*i,
			Workers:      workers,
			Precollected: map[string]*stats.Stats{"A": st, "B": st},
		}
		if i%2 == 1 {
			o.OverflowTarget = 0.05
		}
		return o
	}
	const jobs = 8
	projections := []struct{ shape, shared, extras []int }{
		{[]int{32, 32}, []int{0}, []int{1}},
		{[]int{32, 32}, []int{1}, []int{0}},
		{[]int{32, 32}, []int{1}, nil},
		{[]int{64, 16}, []int{0}, []int{1}},
		{[]int{64, 16}, []int{0, 1}, nil},
	}
	for _, workers := range []int{1, 8} {
		shared := fresh()
		got := make([]*optimizer.Result, jobs)
		errs := make([]error, jobs)
		projs := make([][]*stats.Projection, jobs)
		var wg sync.WaitGroup
		for i := 0; i < jobs; i++ {
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = optimizer.OptimizeCtx(context.Background(), e, inputs, opts(i, workers, shared))
			}(i)
			go func(i int) {
				defer wg.Done()
				for _, pr := range projections {
					sh, err := shared.EvalShape(pr.shape)
					if err != nil {
						t.Error(err)
						return
					}
					projs[i] = append(projs[i], sh.Project(pr.shared, pr.extras))
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		ref := fresh()
		for k, pr := range projections {
			sh, err := ref.EvalShape(pr.shape)
			if err != nil {
				t.Fatal(err)
			}
			want := sh.Project(pr.shared, pr.extras)
			for i := range projs {
				if projs[i][k] != projs[0][k] {
					t.Fatalf("workers=%d projection %d: goroutines got distinct tables for one axis-set pair", workers, k)
				}
			}
			if !reflect.DeepEqual(projs[0][k], want) {
				t.Fatalf("workers=%d projection %d: shared table differs from a fresh bundle's", workers, k)
			}
		}
		for i := 0; i < jobs; i++ {
			if errs[i] != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, errs[i])
			}
			want, err := optimizer.Optimize(e, inputs, opts(i, workers, fresh()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(planOf(got[i]), planOf(want)) {
				t.Fatalf("workers=%d job %d: plan over the shared bundle differs from a fresh bundle's:\n%+v\n%+v",
					workers, i, planOf(got[i]), planOf(want))
			}
		}
		n := stats.ShapeMemoLen(shared)
		t.Logf("workers=%d: %d jobs left %d shapes in the memo", workers, jobs, n)
		if n == 0 || n > stats.ShapeMemoCap {
			t.Fatalf("workers=%d: shape memo holds %d shapes, want 1..%d", workers, n, stats.ShapeMemoCap)
		}
	}
}

// TestEvalShapeMemoCapped evaluates more distinct shapes than the memo
// holds from concurrent goroutines: every result equals a fresh
// bundle's, repeated calls for a kept shape return the kept value, and
// the memo fills to exactly its cap, no further.
func TestEvalShapeMemoCapped(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	m := gen.PowerLawGraph(r, 256, 3000, 1.5)
	st, _, err := stats.Collect(m, []int{32, 32}, []int{0, 1}, &stats.Options{MicroDiv: 8})
	if err != nil {
		t.Fatal(err)
	}
	fresh := decoder(t, st)
	var shapes [][]int
	for a := 1; a <= 18; a++ {
		for b := 1; b <= 18; b++ {
			shapes = append(shapes, []int{4 * a, 4 * b})
		}
	}
	if len(shapes) <= stats.ShapeMemoCap {
		t.Fatalf("%d shapes do not overflow the %d-entry memo", len(shapes), stats.ShapeMemoCap)
	}
	shared := fresh()
	const goroutines = 4
	got := make([][]*stats.ShapeStats, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*stats.ShapeStats, len(shapes))
			for k := range shapes {
				i := (k + g*len(shapes)/goroutines) % len(shapes)
				sh, err := shared.EvalShape(shapes[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = sh
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := stats.ShapeMemoLen(shared); n != stats.ShapeMemoCap {
		t.Fatalf("memo holds %d shapes after %d distinct evaluations, want exactly %d", n, len(shapes), stats.ShapeMemoCap)
	}
	ref := fresh()
	kept := 0
	for i, shape := range shapes {
		want, err := ref.EvalShape(shape)
		if err != nil {
			t.Fatal(err)
		}
		again, err := shared.EvalShape(shape)
		if err != nil {
			t.Fatal(err)
		}
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Fatalf("shape %v (goroutine %d) differs from a fresh bundle's", shape, g)
			}
		}
		for g := range got {
			if got[g][i] == again {
				kept++
				break
			}
		}
	}
	if kept != stats.ShapeMemoCap {
		t.Fatalf("%d shapes returned their memoized value on a repeat call, want %d", kept, stats.ShapeMemoCap)
	}
}

// TestEvalShapeOneFlightPerShape asks the same shapes, and the same
// projections of them, from concurrent goroutines over one bundle:
// each distinct shape is evaluated once and each distinct (shape,
// axis-set pair) projected once, however many goroutines ask at the
// same moment. A failing shape reaches every asker, is not kept, and
// is evaluated again on the next ask.
func TestEvalShapeOneFlightPerShape(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := gen.PowerLawGraph(r, 256, 3000, 1.5)
	st, _, err := stats.Collect(m, []int{32, 32}, []int{0, 1}, &stats.Options{MicroDiv: 8})
	if err != nil {
		t.Fatal(err)
	}
	shared := decoder(t, st)()
	var shapes [][]int
	for a := 1; a <= 8; a++ {
		for b := 1; b <= 5; b++ {
			shapes = append(shapes, []int{4 * a, 8 * b})
		}
	}
	pairs := [][2][]int{{{0}, {1}}, {{1}, {0}}, {{0}, nil}, {{0, 1}, nil}}
	const goroutines = 8
	ask := func(fn func(g int) error) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := fn(g); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	ask(func(g int) error {
		for k := range shapes {
			sh, err := shared.EvalShape(shapes[(k+g)%len(shapes)])
			if err != nil {
				return err
			}
			for _, p := range pairs {
				sh.Project(p[0], p[1])
			}
		}
		return nil
	})
	if n := stats.EvalShapeRuns(shared); n != int64(len(shapes)) {
		t.Fatalf("%d shape evaluations for %d distinct shapes", n, len(shapes))
	}
	for _, shape := range shapes {
		sh, _ := shared.EvalShape(shape)
		if n := stats.ProjectRuns(sh); n != int64(len(pairs)) {
			t.Fatalf("shape %v: %d projections for %d distinct axis-set pairs", shape, n, len(pairs))
		}
	}

	bad := []int{5, 8} // off the micro grid
	ask(func(int) error {
		if _, err := shared.EvalShape(bad); err == nil {
			return fmt.Errorf("tile dims %v off the micro grid evaluated", bad)
		}
		return nil
	})
	if n := stats.ShapeMemoLen(shared); n != len(shapes) {
		t.Fatalf("memo holds %d shapes, want the %d valid ones", n, len(shapes))
	}
	evals := stats.EvalShapeRuns(shared)
	if _, err := shared.EvalShape(bad); err == nil || stats.EvalShapeRuns(shared) != evals+1 {
		t.Fatalf("a failed shape was not evaluated again on the next ask (err %v)", err)
	}
}
