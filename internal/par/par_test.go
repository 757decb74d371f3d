package par

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 257
		hits := make([]int32, n)
		err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := ForEachCtx(context.Background(), workers, 64, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: want lowest-index error \"item 3\", got %v", workers, err)
		}
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), workers, 8, func(i int) error {
			if i == 2 {
				panic("boom")
			}
			if i == 5 {
				return errors.New("late error")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Fatalf("workers=%d: want PanicError(boom) from index 2, got %v", workers, err)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		out, err := MapCtx(context.Background(), workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, 10, func(i int) (int, error) {
		if i >= 5 {
			return 0, fmt.Errorf("item %d", i)
		}
		return i, nil
	})
	if out != nil || err == nil || err.Error() != "item 5" {
		t.Fatalf("want (nil, item 5), got (%v, %v)", out, err)
	}
}

func TestForEachCtxCancelStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := ForEachCtx(ctx, workers, 100_000, func(i int) error {
			if atomic.AddInt32(&ran, 1) == 8 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight items finish, but no worker may claim fresh work after
		// the cancel: far fewer than n items ran.
		if n := atomic.LoadInt32(&ran); n >= 100_000 {
			t.Fatalf("workers=%d: all %d items ran despite cancellation", workers, n)
		}
	}
}

func TestForEachCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(ctx, workers, 64, func(i int) error {
			t.Errorf("workers=%d: fn ran for index %d", workers, i)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// Even the n == 0 fast path reports a dead context.
	if err := ForEachCtx(ctx, 4, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0: err = %v, want context.Canceled", err)
	}
	if err := ForEachCtx(context.Background(), 4, 0, nil); err != nil {
		t.Fatalf("n=0 live ctx: %v", err)
	}
}

// TestForEachCtxFnErrorBeatsCancellation pins the interaction of the
// lowest-index-wins rule with cancellation: an item error outranks the
// context errors its cancellation leaves at other indices, so callers
// always see the root cause, never the secondary context error.
func TestForEachCtxFnErrorBeatsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForEachCtx(ctx, workers, 256, func(i int) error {
			if i == 3 {
				cancel()
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		cancel()
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: want \"item 3\", got %v", workers, err)
		}
	}
}

// TestForEachCtxStalledLowIndexCancellation pins the schedule the test
// above hits only by chance: item 0 is in flight when item 3 fails and
// cancels, and returns the context's error. The context error sits at
// the lower index, and the caller must still get item 3's error.
func TestForEachCtxStalledLowIndexCancellation(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForEachCtx(ctx, workers, 8, func(i int) error {
			switch i {
			case 0:
				<-ctx.Done()
				return ctx.Err()
			case 3:
				cancel()
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		cancel()
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: want \"item 3\", got %v", workers, err)
		}
	}
}

func TestMapCtxCancelDiscardsResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 4, 10, func(i int) (int, error) { return i, nil })
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", out, err)
	}
	good, err := MapCtx(context.Background(), 4, 10, func(i int) (int, error) { return i * 2, nil })
	if err != nil || len(good) != 10 || good[7] != 14 {
		t.Fatalf("live ctx MapCtx: (%v, %v)", good, err)
	}
}

func TestChunksCoverDisjoint(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 10}, {3, 10}, {10, 10}, {16, 10}, {4, 1}, {0, 5}, {7, 100},
	} {
		chunks := Chunks(tc.workers, tc.n)
		covered := 0
		prev := 0
		for _, c := range chunks {
			if c[0] != prev || c[1] <= c[0] {
				t.Fatalf("workers=%d n=%d: bad chunk %v (prev end %d)", tc.workers, tc.n, c, prev)
			}
			covered += c[1] - c[0]
			prev = c[1]
		}
		if covered != tc.n || prev != tc.n {
			t.Fatalf("workers=%d n=%d: chunks %v cover %d", tc.workers, tc.n, chunks, covered)
		}
		if tc.workers >= 1 && len(chunks) > tc.workers {
			t.Fatalf("workers=%d n=%d: %d chunks", tc.workers, tc.n, len(chunks))
		}
	}
	if Chunks(4, 0) != nil {
		t.Fatal("Chunks(4, 0) should be nil")
	}
}

func TestChunksBalanced(t *testing.T) {
	chunks := Chunks(4, 10)
	sizes := make([]int, len(chunks))
	for i, c := range chunks {
		sizes[i] = c[1] - c[0]
	}
	if !reflect.DeepEqual(sizes, []int{2, 3, 2, 3}) && !reflect.DeepEqual(sizes, []int{3, 3, 2, 2}) {
		// Near-equal: no chunk may differ from another by more than 1.
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Fatalf("unbalanced chunks: %v", sizes)
		}
	}
}

func TestWorkersResolve(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers(<=0) must resolve to at least 1")
	}
	if Workers(5) != 5 {
		t.Fatal("Workers(5) != 5")
	}
}

// TestForEachMissCtx: hits resolve on the caller in item order and fn
// runs exactly the misses, at any worker count.
func TestForEachMissCtx(t *testing.T) {
	const n = 12
	for _, misses := range [][]int{nil, {5}, {0, 3, 11}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}} {
		for _, workers := range []int{1, 4} {
			miss := make([]bool, n)
			for _, i := range misses {
				miss[i] = true
			}
			var order []int
			ran := make([]int32, n)
			err := ForEachMissCtx(context.Background(), workers, n, func(i int, hitsOnly bool) (bool, error) {
				if hitsOnly {
					order = append(order, i)
					if !miss[i] {
						ran[i]++
					}
					return !miss[i], nil
				}
				if !miss[i] {
					t.Errorf("fn ran hit %d", i)
				}
				atomic.AddInt32(&ran[i], 1)
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if ran[i] != 1 || order[i] != i {
					t.Fatalf("misses %v workers=%d: item %d resolved %d times, hit pass order %v", misses, workers, i, ran[i], order)
				}
			}
		}
	}
}

// TestForEachMissCtxErrors: the lowest-index item error wins across the
// hit pass and the misses, an item error beats a context error, the hit
// pass stops at its first error, and a panic in hit is an error.
func TestForEachMissCtxErrors(t *testing.T) {
	errHit, errMiss := errors.New("hit"), errors.New("miss")
	run := func(ctx context.Context, hitErrAt, missErrAt int, missing ...int) ([]int, error) {
		var ran []int
		var mu sync.Mutex
		err := ForEachMissCtx(ctx, 4, 8, func(i int, hitsOnly bool) (bool, error) {
			if hitsOnly {
				if i == hitErrAt {
					return true, errHit
				}
				return !slices.Contains(missing, i), nil
			}
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			if i == missErrAt {
				return true, errMiss
			}
			return true, nil
		})
		slices.Sort(ran)
		return ran, err
	}
	if _, err := run(context.Background(), 5, 2, 2, 6); !errors.Is(err, errMiss) {
		t.Fatalf("miss error at 2, hit error at 5: got %v", err)
	}
	if ran, err := run(context.Background(), 3, 6, 2, 6); !errors.Is(err, errHit) || !slices.Equal(ran, []int{2}) {
		t.Fatalf("hit error at 3, miss error at 6: got %v after misses %v, want the hit error after miss 2", err, ran)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ran, err := run(ctx, -1, -1, 1); !errors.Is(err, context.Canceled) || len(ran) != 0 {
		t.Fatalf("cancelled: got %v after misses %v", err, ran)
	}
	err := ForEachMissCtx(context.Background(), 2, 3, func(i int, hitsOnly bool) (bool, error) {
		if i == 1 {
			panic("bad lookup")
		}
		return true, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "bad lookup" {
		t.Fatalf("panic in hit: got %v", err)
	}
}
