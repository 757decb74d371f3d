package d2t2

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/optimizer"
	"d2t2/internal/tensor"
)

// dataflowCandidate records one order the oracle evaluated.
type dataflowCandidate struct {
	Order     []string
	Result    *optimizer.Result
	Predicted float64
}

// selectDataflow is the sequential dataflow search OptimizeDataflow
// replaced, kept as its oracle: one full optimizer.OptimizeCtx per
// candidate order (nil = all permutations of the kernel's indices),
// each re-collecting its inputs' statistics, and the result with the
// first strict minimum of predicted traffic.
func selectDataflow(e *einsum.Expr, inputs map[string]*tensor.COO, orders [][]string, opts optimizer.Options) (*optimizer.Result, []dataflowCandidate, error) {
	if orders == nil {
		orders = e.OrderPermutations()
	}
	var cands []dataflowCandidate
	bestIdx := -1
	for _, order := range orders {
		variant, err := e.WithOrder(order)
		if err != nil {
			return nil, nil, err
		}
		res, err := optimizer.OptimizeCtx(context.Background(), variant, inputs, opts)
		if err != nil {
			return nil, nil, err
		}
		cands = append(cands, dataflowCandidate{
			Order:     append([]string(nil), order...),
			Result:    res,
			Predicted: res.Predicted.Total(),
		})
		if bestIdx < 0 || cands[len(cands)-1].Predicted < cands[bestIdx].Predicted {
			bestIdx = len(cands) - 1
		}
	}
	if bestIdx < 0 {
		return nil, nil, fmt.Errorf("no dataflow candidates")
	}
	return cands[bestIdx].Result, cands, nil
}

// TestSelectDataflow checks the oracle itself: its pick is no worse
// than any candidate, and every candidate's config executes under its
// own order.
func TestSelectDataflow(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	a := gen.Banded(r, 256, 6, 8)
	inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
	e := einsum.SpMSpMIKJ()
	best, cands, err := selectDataflow(e, inputs,
		[][]string{{"i", "k", "j"}, {"i", "j", "k"}, {"k", "i", "j"}},
		optimizer.Options{BufferWords: DenseTileWords(32, 32)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	for _, c := range cands {
		if c.Predicted <= 0 || c.Result == nil {
			t.Fatalf("bad candidate %+v", c)
		}
		if best.Predicted.Total() > c.Predicted {
			t.Fatalf("best %v worse than candidate %v", best.Predicted.Total(), c.Predicted)
		}
	}
	for _, c := range cands {
		variant, err := e.WithOrder(c.Order)
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := optimizer.TileAllCtx(context.Background(), variant, inputs, c.Result.Config, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.MeasureCtx(context.Background(), variant, tiled, nil); err != nil {
			t.Fatalf("order %v fails to execute: %v", c.Order, err)
		}
	}
}

// TestOptimizeDataflowMatchesOracle: on Gustavson over two matrix
// structures and three buffers, OptimizeDataflow picks the oracle's
// order, config and predicted traffic, and its one Batch collects each
// input once per level order — 4 bundles for two distinct matrices,
// where the oracle collects 12 (2 inputs × 6 orders).
func TestOptimizeDataflowMatchesOracle(t *testing.T) {
	k := Gustavson()
	for _, label := range []string{"Q", "E"} {
		a, err := Dataset(label, 96)
		if err != nil {
			t.Fatal(err)
		}
		inputs := Inputs{"A": a, "B": a.Transpose()}
		for _, tile := range []int{16, 32, 64} {
			opts := Options{BufferWords: DenseTileWords(tile, tile)}
			want, _, err := selectDataflow(k.expr, inputs.lower(), nil, opts.lower())
			if err != nil {
				t.Fatal(err)
			}
			cache := &countingCache{}
			plan, order, err := NewSession(cache).NewBatch().optimizeDataflow(context.Background(), k, inputs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cache.stores != 4 {
				t.Errorf("%s tile %d: %d bundles collected, want 4", label, tile, cache.stores)
			}
			wantMB := want.Predicted.Total() * 4 / (1 << 20)
			if !reflect.DeepEqual(order, want.Expr.Order) || !reflect.DeepEqual(map[string]int(plan.Config), map[string]int(want.Config)) ||
				plan.PredictedMB != wantMB {
				t.Fatalf("%s tile %d: order %v config %v %v MB, oracle %v %v %v MB",
					label, tile, order, plan.Config, plan.PredictedMB, want.Expr.Order, want.Config, wantMB)
			}
			public, publicOrder, err := OptimizeDataflow(context.Background(), k, inputs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(publicOrder, order) || !reflect.DeepEqual(planBytes(t, public), planBytes(t, plan)) {
				t.Fatalf("%s tile %d: OptimizeDataflow differs from its batch walk", label, tile)
			}
		}
	}
}
