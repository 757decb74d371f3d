package optimizer

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

func cancelFixture(t *testing.T) (map[string]*tensor.COO, int) {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	a := gen.PowerLawGraph(r, 512, 8000, 1.6)
	return map[string]*tensor.COO{"A": a, "B": a.Transpose()},
		tiling.DenseFootprintWords([]int{64, 64})
}

// TestOptimizeCtxPreCancelled pins the fast-fail contract: a dead
// context aborts the pipeline at its first work-item boundary and
// surfaces the context's own error, not a wrapped variant.
func TestOptimizeCtxPreCancelled(t *testing.T) {
	inputs, buffer := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeCtx(ctx, einsum.SpMSpMIKJ(), inputs, Options{BufferWords: buffer, Workers: 4})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", res, err)
	}
}

// TestOptimizeCtxDeadlineAborts runs the cold pipeline against a
// deadline far shorter than the pipeline itself and checks that the
// deadline error propagates out instead of the pipeline running to
// completion.
func TestOptimizeCtxDeadlineAborts(t *testing.T) {
	inputs, buffer := cancelFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := OptimizeCtx(ctx, einsum.SpMSpMIKJ(), inputs, Options{BufferWords: buffer, Workers: 4})
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want (nil, context.DeadlineExceeded), got (%v, %v)", res, err)
	}
}

func TestTileAllCtxPreCancelled(t *testing.T) {
	inputs, _ := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := model.Config{"i": 32, "j": 32, "k": 32}
	tiled, err := TileAllCtx(ctx, einsum.SpMSpMIKJ(), inputs, cfg, 4)
	if tiled != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", tiled, err)
	}
}
