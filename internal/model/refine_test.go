package model

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/raceflag"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
)

// tupleKey keys the outer coordinates at the given axis positions by the
// tuple itself, so the oracle shares no key layout with the projections.
func tupleKey(oc []int32, axes []int) string {
	c := make([]int32, len(axes))
	for i, a := range axes {
		c[i] = oc[a]
	}
	return fmt.Sprint(c)
}

// refinedInputTrafficMap is the map-building refinedInputTraffic the
// memoized projections replaced: per call it derives the cofactor plans
// from the expression and builds a hash table over each cofactor's
// tiles. It is the reference oracle of TestRefinedInputMatchesMapOracle.
func (p *Predictor) refinedInputTrafficMap(vi int, views []*tensorView, prod []int) (float64, bool) {
	e := p.Expr
	v := views[vi]
	if v.sh == nil || len(v.sh.GroupFP) == 0 {
		return 0, false
	}
	own := make(map[string]int, len(v.ref.Indices))
	for a, ix := range v.ref.Indices {
		own[ix] = a
	}
	extraOwner := make(map[string]int)
	var extras []string
	for _, ix := range e.FetchSpace(v.ref) {
		if _, ok := own[ix]; !ok {
			extras = append(extras, ix)
			extraOwner[ix] = 0
		}
	}
	for _, wi := range prod {
		if wi == vi {
			continue
		}
		for _, ix := range views[wi].ref.Indices {
			if _, isExtra := extraOwner[ix]; isExtra {
				extraOwner[ix]++
			}
		}
	}
	for _, ix := range extras {
		if extraOwner[ix] != 1 {
			return 0, false
		}
	}
	type mapPlan struct {
		sharedV []int
		count   map[string]int
		exists  map[string]struct{}
	}
	var plans []mapPlan
	for _, wi := range prod {
		if wi == vi {
			continue
		}
		w := views[wi]
		if w.sh == nil {
			return 0, false
		}
		var plan mapPlan
		var sharedW, wExtras []int
		for a, ix := range w.ref.Indices {
			if va, ok := own[ix]; ok {
				if w.tileDims[a] != v.tileDims[va] {
					return 0, false
				}
				plan.sharedV = append(plan.sharedV, va)
				sharedW = append(sharedW, a)
			} else if _, isExtra := extraOwner[ix]; isExtra {
				wExtras = append(wExtras, a)
			}
		}
		if len(wExtras) > 0 {
			plan.count = make(map[string]int)
			seen := make(map[string]map[string]struct{})
			for t := range w.sh.GroupFP {
				oc := w.sh.TileOuter(t)
				key := tupleKey(oc, sharedW)
				s := seen[key]
				if s == nil {
					s = make(map[string]struct{})
					seen[key] = s
				}
				s[tupleKey(oc, wExtras)] = struct{}{}
			}
			for key, s := range seen {
				plan.count[key] = len(s)
			}
		} else {
			plan.exists = make(map[string]struct{})
			for t := range w.sh.GroupFP {
				plan.exists[tupleKey(w.sh.TileOuter(t), sharedW)] = struct{}{}
			}
		}
		plans = append(plans, plan)
	}
	traffic := 0.0
	for t, f := range v.sh.GroupFP {
		oc := v.sh.TileOuter(t)
		mult := 1.0
		for _, plan := range plans {
			key := tupleKey(oc, plan.sharedV)
			if plan.count != nil {
				mult *= float64(plan.count[key])
			} else if _, ok := plan.exists[key]; !ok {
				mult = 0
			}
			if mult <= 0 {
				break
			}
		}
		traffic += f * mult
	}
	return traffic, true
}

// collectAll collects stats for every input of e at a uniform base tile.
func collectAll(t testing.TB, e *einsum.Expr, mats map[string]*tensor.COO, baseTile, microDiv int) map[string]*stats.Stats {
	t.Helper()
	st := make(map[string]*stats.Stats)
	for _, ref := range e.Inputs() {
		base := make([]int, len(ref.Indices))
		for a := range base {
			base[a] = baseTile
		}
		s, _, err := stats.CollectCtx(context.Background(), mats[ref.Name], base, e.LevelOrder(ref), &stats.Options{MicroDiv: microDiv})
		if err != nil {
			t.Fatal(err)
		}
		st[ref.Name] = s
	}
	return st
}

// TestRefinedInputMatchesMapOracle pins the projection-based refinement
// to the map oracle bit for bit — including which occurrences refine at
// all — on SpMSpM ikj and ijk, A×Aᵀ, TTM, an elementwise product whose
// only cofactor is a filter, and SDDMM (filter cofactors and an extra
// with two owners), at random configs, including tiles past the
// dimensions where shared tile sizes disagree.
func TestRefinedInputMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	a := gen.PowerLawGraph(r, 256, 3000, 1.6)
	b := gen.UniformRandom(r, 256, 192, 1500)
	s := gen.UniformRandom(r, 256, 192, 900)
	x3 := gen.RandomTensor3(r, 48, 40, 64, 2500, [3]float64{0, 0.5, 0})
	m3 := gen.UniformRandom(r, 56, 64, 400)
	cases := []struct {
		name string
		e    *einsum.Expr
		mats map[string]*tensor.COO
	}{
		{"spmspm-ikj", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": b}},
		{"spmspm-ijk", einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": a, "B": b.Transpose()}},
		{"AxAT", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": a.Transpose()}},
		{"ttm", einsum.TTM(), map[string]*tensor.COO{"C": x3, "B": m3}},
		{"filter-only", einsum.MustParse("C(i,j) = A(i,j) * B(i,j) | order: i,j"), map[string]*tensor.COO{"A": b, "B": s}},
		{"sddmm", einsum.SDDMM(), map[string]*tensor.COO{"S": s, "A": a, "B": b}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.e, collectAll(t, tc.e, tc.mats, 16, 4))
			if err != nil {
				t.Fatal(err)
			}
			refs := tc.e.Inputs()
			refined := 0
			for trial := 0; trial < 20; trial++ {
				cfg := Config{}
				for _, ix := range tc.e.Order {
					cfg[ix] = 4 << r.Intn(7)
				}
				views := make([]*tensorView, len(refs))
				for vi, ref := range refs {
					if views[vi], err = p.view(ref, cfg); err != nil {
						t.Fatal(err)
					}
				}
				for vi := range refs {
					got, ok := p.refinedInputTraffic(vi, views)
					want, wantOK := p.refinedInputTrafficMap(vi, views, p.prods[0])
					if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cfg %v occurrence %s: refined (%v, %v), map oracle (%v, %v)",
							cfg, refs[vi].Name, got, ok, want, wantOK)
					}
					if ok {
						refined++
					}
				}
			}
			if refined == 0 {
				t.Fatal("no occurrence refined: the comparison is vacuous")
			}
		})
	}
}

// predictBench is the Predict workload of TestPredictAllocs and
// BenchmarkPredict: SpMSpM-ikj of a power-law matrix with itself at a
// memoized shape.
func predictBench(t testing.TB, n, edges int) (*Predictor, Config) {
	r := rand.New(rand.NewSource(1))
	m := gen.PowerLawGraph(r, n, edges, 1.7)
	e := einsum.SpMSpMIKJ()
	p, err := New(e, collectAll(t, e, map[string]*tensor.COO{"A": m, "B": m}, 64, 8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.SnapConfig(Config{"i": 64, "k": 32, "j": 128})
	if _, err := p.Predict(cfg); err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

// TestPredictAllocs gates the allocation count of a prediction whose
// shapes and projections are already memoized: the refinement must read
// the shared tables, not rebuild per-call maps (several hundred
// allocations per call). It gates the computation itself (predict) and
// a Predict served from the prediction memo.
func TestPredictAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	p, cfg := predictBench(t, 512, 20_000)
	const ceiling = 80
	for name, fn := range map[string]func(Config) (*Prediction, error){"predict": p.predict, "Predict": p.Predict} {
		avg := testing.AllocsPerRun(10, func() {
			if _, err := fn(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s allocs/op: %.0f", name, avg)
		if avg > ceiling {
			t.Errorf("memoized %s allocates %.0f times per call, ceiling %d", name, avg, ceiling)
		}
	}
}

// BenchmarkPredict measures a prediction at memoized shapes on a 2048²
// power-law SpMSpM-ikj, computed each time (predict: a Predict of a
// repeated config is a prediction-memo hit).
func BenchmarkPredict(b *testing.B) {
	p, cfg := predictBench(b, 2048, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.predict(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLandedLookupAllocs gates the lookups an all-hit optimize makes per
// candidate: a landed shape (EvalRef, RefLanded), a landed prediction's
// total (Total, PredictionLanded) allocate nothing — their memo keys are
// built on the stack — and a landed Predict only its copy.
func TestLandedLookupAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	p, cfg := predictBench(t, 512, 20_000)
	ref := p.Inputs()[0]
	if _, err := p.EvalRef(ref, cfg); err != nil {
		t.Fatal(err)
	}
	if !p.RefLanded(ref, cfg) || !p.PredictionLanded(cfg) {
		t.Fatal("the priced config's shape or prediction has not landed")
	}
	for name, c := range map[string]struct {
		fn   func()
		want float64
	}{
		"EvalRef":          {func() { p.EvalRef(ref, cfg) }, 0},
		"RefLanded":        {func() { p.RefLanded(ref, cfg) }, 0},
		"Total":            {func() { p.Total(cfg) }, 0},
		"PredictionLanded": {func() { p.PredictionLanded(cfg) }, 0},
		"Predict":          {func() { p.Predict(cfg) }, 3},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.want {
			t.Errorf("a landed %s allocates %.0f times, want at most %.0f", name, got, c.want)
		}
	}
}
