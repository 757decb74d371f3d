package optimizer

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// parentSweepMicroEvals is how many shapes one optimize below priced
// from the micro summary when each RF shape was coarsened from it
// directly, before the sweep landed the common refinements first.
const parentSweepMicroEvals = 12

// TestSweepPricesFromRefinements pins the sweep's source mix on fresh
// bundles: each input's common refinements land before the RF fan-out,
// so they are the only shapes priced from the micro summary — the same
// count at any worker count — and every other shape derives from a
// memoized one. The count is at most half of what pricing each RF from
// the micro summary took.
func TestSweepPricesFromRefinements(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := gen.PowerLawGraph(r, 1024, 16000, 1.6)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	o := Options{BufferWords: tiling.DenseFootprintWords([]int{64, 64})}
	base, err := o.BaseTileFor(e, inputs)
	if err != nil {
		t.Fatal(err)
	}

	type sweep struct {
		res            *Result
		micro, derived int64
	}
	run := func(workers int) sweep {
		var micro, derived atomic.Int64
		pre := make(map[string]*stats.Stats)
		for _, ref := range e.Inputs() {
			p, err := stats.CollectPartialCtx(context.Background(), inputs[ref.Name], []int{base, base}, e.LevelOrder(ref), &stats.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			st, err := p.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			st.ObserveShapeEvals(func(d bool) {
				if d {
					derived.Add(1)
				} else {
					micro.Add(1)
				}
			})
			pre[ref.Name] = st
		}
		oo := o
		oo.Workers, oo.Precollected = workers, pre
		res, err := OptimizeCtx(context.Background(), e, nil, oo)
		if err != nil {
			t.Fatal(err)
		}
		return sweep{res: res, micro: micro.Load(), derived: derived.Load()}
	}
	one, four := run(1), run(4)
	t.Logf("micro %d, derived %d (parent: %d micro)", one.micro, one.derived, parentSweepMicroEvals)
	// The bundles differ (each run collects its own), so compare what
	// the search chose and predicted.
	if !reflect.DeepEqual(one.res.Config, four.res.Config) || !reflect.DeepEqual(one.res.Candidates, four.res.Candidates) ||
		!reflect.DeepEqual(one.res.Predicted, four.res.Predicted) {
		t.Fatal("results differ between Workers=1 and Workers=4")
	}
	if one.micro != four.micro || one.micro+one.derived != four.micro+four.derived {
		t.Errorf("Workers=1 priced %d shapes from micro and %d derived, Workers=4 %d and %d",
			one.micro, one.derived, four.micro, four.derived)
	}
	if 2*one.micro > parentSweepMicroEvals {
		t.Errorf("%d shapes priced from the micro summary, want at most half of %d", one.micro, parentSweepMicroEvals)
	}
}
