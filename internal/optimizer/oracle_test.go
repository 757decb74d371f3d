package optimizer

// Sizing oracle: the conservative and the risk-aware size growth written
// as two separate functions. TestRiskSizingMatchesOracle checks that
// grow, which runs both through one sizing rule, reproduces them on the
// same swept Result.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// TestRiskSizingMatchesOracle sweeps SpMSpM (ikj and ijk, on a skewed
// and on a dense-line matrix pair), TTM and SDDMM at dense 16/32/64
// buffers and overflow targets {0, 0.01, 0.05, 0.1} with SkipResize,
// then grows the swept Result with grow and with the oracle: Config,
// TileFactor and the percentile seed must agree at workers 1 and 8.
func TestRiskSizingMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	pl := gen.PowerLawGraph(r, 512, 5000, 1.7)
	mat := map[string]*tensor.COO{"A": pl, "B": gen.UniformRandom(r, 512, 512, 3000)}
	// Dense lines give the risk-aware rule overflowing candidates whose
	// premium decides the growth.
	circuit := map[string]*tensor.COO{"A": gen.CircuitLike(r, 512, 4, 3), "B": gen.CircuitLike(r, 512, 4, 3)}
	ttm := map[string]*tensor.COO{
		"C": gen.RandomTensor3(r, 128, 96, 80, 6000, [3]float64{0, 0, 0.4}),
		"B": gen.UniformRandom(r, 96, 80, 800),
	}
	sddmm := map[string]*tensor.COO{
		"S": gen.UniformRandom(r, 256, 256, 600),
		"A": gen.Banded(r, 256, 5, 6),
		"B": gen.Banded(r, 256, 5, 6),
	}
	cases := []struct {
		e      *einsum.Expr
		inputs map[string]*tensor.COO
		order  int
	}{
		{einsum.SpMSpMIKJ(), mat, 2},
		{einsum.SpMSpMIJK(), mat, 2},
		{einsum.SpMSpMIKJ(), circuit, 2},
		{einsum.SpMSpMIJK(), circuit, 2},
		{einsum.TTM(), ttm, 3},
		{einsum.SDDMM(), sddmm, 2},
	}
	for _, tc := range cases {
		for _, d := range []int{16, 32, 64} {
			dims := make([]int, tc.order)
			for a := range dims {
				dims[a] = d
			}
			for _, target := range []float64{0, 0.01, 0.05, 0.1} {
				for _, workers := range []int{1, 8} {
					o := Options{
						BufferWords:    tiling.DenseFootprintWords(dims),
						OverflowTarget: target,
						SkipResize:     true,
						Workers:        workers,
					}.withDefaults()
					swept, err := OptimizeCtx(context.Background(), tc.e, tc.inputs, o)
					if err != nil {
						t.Fatal(err)
					}
					pred, err := o.NewPredictor(tc.e, swept.Stats)
					if err != nil {
						t.Fatal(err)
					}
					upIdx, _ := shapeAxes(tc.e)
					got, want := *swept, *swept
					got.Config, want.Config = swept.Config.Clone(), swept.Config.Clone()
					seed, err := got.grow(context.Background(), sizing{pred: pred, e: tc.e, o: o}, upIdx)
					if err != nil {
						t.Fatal(err)
					}
					wantPct, checks := 0, 0
					if target > 0 {
						err = want.growRiskOracle(context.Background(), pred, upIdx, o, &checks)
						wantPct = want.Risk.PercentileTile
					} else {
						err = want.growOracle(context.Background(), pred, upIdx, o, &checks)
					}
					if err != nil {
						t.Fatal(err)
					}
					gotPct := 0
					if target > 0 {
						gotPct = int(math.Ceil(seed))
					}
					if !reflect.DeepEqual(got.Config, want.Config) || got.TileFactor != want.TileFactor || gotPct != wantPct {
						t.Fatalf("%s d=%d target=%v workers=%d: grow gave %v tf=%d pct=%d, oracle %v tf=%d pct=%d",
							tc.e, d, target, workers, got.Config, got.TileFactor, gotPct, want.Config, want.TileFactor, wantPct)
					}
				}
			}
		}
	}
}

// TestGrowSkipsRejectedChecks counts grow's admission checks against
// the oracles' on fixed inputs. On the conservative path grow must land
// on the oracle's config with fewer checks in all (a rejected index is
// not checked again); on the risk-aware path, where the overflow rate
// is not monotone, it must make exactly the oracle's checks.
func TestGrowSkipsRejectedChecks(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	a := gen.PowerLawGraph(r, 1024, 12000, 1.7)
	c := gen.CircuitLike(r, 1024, 4, 3)
	inputs := []map[string]*tensor.COO{
		{"A": a, "B": a.Transpose()},
		{"A": c, "B": c.Transpose()},
	}
	for _, target := range []float64{0, 0.05} {
		got, want := 0, 0
		for _, in := range inputs {
			for _, e := range []*einsum.Expr{einsum.SpMSpMIKJ(), einsum.SpMSpMIJK()} {
				for _, d := range []int{16, 32, 64} {
					o := Options{
						BufferWords:    tiling.DenseFootprintWords([]int{d, d}),
						OverflowTarget: target,
						SkipResize:     true,
						Workers:        2,
					}.withDefaults()
					swept, err := OptimizeCtx(context.Background(), e, in, o)
					if err != nil {
						t.Fatal(err)
					}
					pred, err := o.NewPredictor(e, swept.Stats)
					if err != nil {
						t.Fatal(err)
					}
					upIdx, _ := shapeAxes(e)
					g, w := *swept, *swept
					g.Config, w.Config = swept.Config.Clone(), swept.Config.Clone()
					count := func(model.Config) { got++ }
					if _, err := g.grow(context.Background(), sizing{pred: pred, e: e, o: o, checked: count}, upIdx); err != nil {
						t.Fatal(err)
					}
					if target > 0 {
						err = w.growRiskOracle(context.Background(), pred, upIdx, o, &want)
					} else {
						err = w.growOracle(context.Background(), pred, upIdx, o, &want)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(g.Config, w.Config) {
						t.Fatalf("%s d=%d target=%v: grow gave %v, oracle %v", e, d, target, g.Config, w.Config)
					}
				}
			}
		}
		t.Logf("target=%v: grow made %d admission checks, the oracle %d", target, got, want)
		if target > 0 && got != want {
			t.Fatalf("target=%v: grow made %d admission checks, the oracle %d", target, got, want)
		}
		if target == 0 && got >= want {
			t.Fatalf("grow made %d admission checks, the oracle %d: rejected indices were checked again", got, want)
		}
	}
}

// growOracle is the reference grow must reproduce under the
// conservative sizing rule; it counts its admission checks in checks
// (grow skips the ones that cannot pass). It implements the size optimization: seed
// with the Eq. 22 TileFactor on the primary output index, then greedily
// double output-index tile dimensions while every input's largest
// actual tile fits the buffer.
// ctx is consulted once per candidate doubling — each candidate costs a
// model prediction, the growth loop's unit of work.
func (r *Result) growOracle(ctx context.Context, pred *model.Predictor, upIdx string, o Options, checks *int) error {
	// Eq. 22: TileFactor = BufferSize / MaxTiles at the chosen shape.
	maxTile := 0
	for _, ref := range r.Expr.Inputs() {
		sh, err := pred.EvalRef(ref, r.Config)
		if err != nil {
			return err
		}
		if sh.MaxTile > maxTile {
			maxTile = sh.MaxTile
		}
	}
	r.TileFactor = 1
	if maxTile > 0 {
		r.TileFactor = o.BufferWords / maxTile
	}
	if r.TileFactor < 1 {
		r.TileFactor = 1
	}

	fits := func(cfg model.Config) (bool, error) {
		*checks++
		for _, ref := range r.Expr.Inputs() {
			sh, err := pred.EvalRef(ref, cfg)
			if err != nil {
				return false, err
			}
			// The conservative upper bound keeps D2T2's guarantee: the
			// retiled footprint never exceeds the member-sum estimate.
			if sh.MaxTileBound > o.BufferWords {
				return false, nil
			}
		}
		return true, nil
	}

	// Seed: scale the primary output index by the TileFactor, backing off
	// until it fits (the Eq. 22 estimate is conservative but the footprint
	// aggregation is approximate).
	for tf := r.TileFactor; tf > 1; tf /= 2 {
		cand := r.Config.Clone()
		cand[upIdx] = r.snapIdx(upIdx, cand[upIdx]*tf)
		ok, err := fits(cand)
		if err != nil {
			return err
		}
		if ok {
			r.Config = cand
			break
		}
	}

	// Greedy doubling over every index variable, round-robin: accept a
	// doubling when the grown tiles still fit and the model predicts no
	// traffic regression (ties go to the larger tile — fewer tile
	// iterations for free). Growing contracted indices matters for
	// high-reuse data such as diagonal matrices, where the contracted
	// span bounds the iteration count.
	idxs := append([]string(nil), r.Expr.Order...)
	sort.Strings(idxs)
	cur, err := pred.Predict(r.Config)
	if err != nil {
		return err
	}
	for pass := 0; pass < maxGrowthDoublings; pass++ {
		improved := false
		for _, ix := range idxs {
			if err := ctx.Err(); err != nil {
				return err
			}
			cand := r.Config.Clone()
			cand[ix] = r.snapIdx(ix, cand[ix]*2)
			if cand[ix] == r.Config[ix] {
				continue
			}
			ok, err := fits(cand)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			p, err := pred.Predict(cand)
			if err != nil {
				return err
			}
			if p.Total() <= cur.Total()*1.001 {
				r.Config = cand
				cur = p
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return nil
}

// growRiskOracle is the reference grow must reproduce under the
// risk-aware sizing rule (counting its admission checks in checks): the Eq. 22 seed uses the (1−target) footprint
// quantile instead of the maximum, admission requires every operand's
// predicted overflow rate within the target, and the greedy doubling
// compares overflow-adjusted totals.
func (r *Result) growRiskOracle(ctx context.Context, pred *model.Predictor, upIdx string, o Options, checks *int) error {
	// Percentile seed: TileFactor = BufferWords / quantile.
	qTile := 0.0
	for _, ref := range r.Expr.Inputs() {
		sh, err := pred.EvalRef(ref, r.Config)
		if err != nil {
			return err
		}
		if q := sh.OverflowQuantile(o.OverflowTarget); q > qTile {
			qTile = q
		}
	}
	r.TileFactor = 1
	if qTile > 0 {
		r.TileFactor = int(float64(o.BufferWords) / qTile)
	}
	if r.TileFactor < 1 {
		r.TileFactor = 1
	}
	r.Risk = &RiskReport{
		OverflowTarget: o.OverflowTarget,
		OverflowExtra:  o.OverflowExtra,
		PercentileTile: int(math.Ceil(qTile)),
	}

	fits := func(cfg model.Config) (bool, error) {
		*checks++
		for _, ref := range r.Expr.Inputs() {
			sh, err := pred.EvalRef(ref, cfg)
			if err != nil {
				return false, err
			}
			if rate, _ := sh.OverflowStats(float64(o.BufferWords)); rate > o.OverflowTarget {
				return false, nil
			}
		}
		return true, nil
	}
	cost := func(cfg model.Config) (float64, error) {
		p, err := pred.Predict(cfg)
		if err != nil {
			return 0, err
		}
		rk, err := evalRisk(pred, r.Expr, cfg, p, o)
		if err != nil {
			return 0, err
		}
		return p.Total() + rk.premium, nil
	}

	// Seed: scale the primary output index by the percentile TileFactor,
	// backing off until the overflow rate is within target.
	for tf := r.TileFactor; tf > 1; tf /= 2 {
		cand := r.Config.Clone()
		cand[upIdx] = r.snapIdx(upIdx, cand[upIdx]*tf)
		ok, err := fits(cand)
		if err != nil {
			return err
		}
		if ok {
			r.Config = cand
			break
		}
	}

	// Greedy doubling, round-robin over all index variables, accepting a
	// doubling when the overflow rate stays within target and the
	// overflow-adjusted total does not regress.
	idxs := append([]string(nil), r.Expr.Order...)
	sort.Strings(idxs)
	cur, err := cost(r.Config)
	if err != nil {
		return err
	}
	for pass := 0; pass < maxGrowthDoublings; pass++ {
		improved := false
		for _, ix := range idxs {
			if err := ctx.Err(); err != nil {
				return err
			}
			cand := r.Config.Clone()
			cand[ix] = r.snapIdx(ix, cand[ix]*2)
			if cand[ix] == r.Config[ix] {
				continue
			}
			ok, err := fits(cand)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			c, err := cost(cand)
			if err != nil {
				return err
			}
			if c <= cur*1.001 {
				r.Config = cand
				cur = c
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return nil
}
