// Package par is the cold-path parallelism kit: a bounded worker pool
// with ordered fan-out/fan-in used by the tiler, the statistics
// collector and the optimizer's shape sweep. Its contract is the one the
// pipeline's determinism gate enforces: for any worker count, results
// are delivered in item order, the first error (by item index, not by
// wall clock) wins, and worker panics surface as errors rather than
// crashing sibling goroutines mid-merge. Every goroutine is joined
// before a call returns — no launch here outlives its caller (the
// goroutinehygiene analyzer checks the join signals). Memo (memo.go) is
// the single-flight memo the search's shape, projection and prediction
// caches share.
//
// Two closure contracts are machine-checked by cmd/d2t2vet: the
// reductionorder analyzer flags schedule-dependent writes to captured
// state inside ForEach*/Map* closures (write into the claimed index's
// slot, reduce after the join), and the scratchescape analyzer flags
// scratch values of the *Scratch variants escaping their closure (see
// ForEachScratch for the ownership rules).
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "all
// cores" (GOMAXPROCS), anything else is taken as given. This is the
// repo-wide convention established by experiments.Suite.Workers.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a value recovered from a worker's panic so fan-out
// callers can surface it as an ordinary error instead of tearing down
// the process from a goroutine (matching the panic policy of library
// code).
type PanicError struct{ Value any }

func (p *PanicError) Error() string { return fmt.Sprintf("par: worker panic: %v", p.Value) }

// ForEach runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (workers <= 0 meaning all cores) and returns the error of
// the lowest-index item that failed, or nil. Indices are claimed from a
// shared counter, so the schedule varies run to run — callers must write
// results into per-index state (slices, not shared maps) so the outcome
// is independent of the schedule. A panic inside fn is captured as a
// *PanicError for its index and competes for lowest-index like any other
// failure; remaining items still run.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: every worker
// consults ctx.Err() before claiming the next index, so a cancelled or
// deadline-expired context stops the fan-out at the next item boundary
// instead of running the remaining items to completion. The item a
// worker observed the cancellation at records ctx.Err() as its error and
// competes for lowest-index like any other failure — so a cancelled call
// returns the context's error (wrapped results must test with
// errors.Is). Items that completed before the cancellation keep their
// outcomes; in-flight items are never interrupted mid-fn. With a
// never-cancelled context the semantics — and the results written by fn
// — are exactly ForEach's, byte-identical at any worker count.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return forEachScratchCtx(ctx, workers, n, nopScratch, func(i int, _ struct{}) error {
		return fn(i)
	})
}

// nopScratch is the zero-cost scratch constructor the scratch-free entry
// points reuse (one shared instantiation instead of a closure per call).
func nopScratch() struct{} { return struct{}{} }

// ForEachScratch is ForEach with per-worker scratch state: each worker
// lazily creates one scratch value S via newScratch on its first claimed
// item and hands the same value to every subsequent item it runs. The
// scratch is worker-private — fn may mutate it freely without
// synchronization — which lets hot loops reuse sized-once buffers
// (reset with clear(), not reallocated) across items. Because the
// item→worker schedule varies run to run, fn MUST NOT let per-item
// results depend on scratch contents left by a previous item: scratch is
// for capacity reuse, never for value reuse. In particular, references
// derived from the scratch (the value itself, fields, elements,
// sub-slices) must not be stored to captured variables, returned as an
// item's result, or sent on channels — copy into per-index state
// instead. The scratchescape analyzer enforces this; the one sanctioned
// leak is in newScratch itself, which may register the scratch it
// creates (under a lock) for a commutative post-join merge, as the
// stats collector does. Results written into per-index state remain
// byte-identical at any worker count exactly as with ForEach.
func ForEachScratch[S any](workers, n int, newScratch func() S, fn func(i int, scratch S) error) error {
	return forEachScratchCtx(context.Background(), workers, n, newScratch, fn)
}

// ForEachScratchCtx is ForEachScratch with cooperative cancellation
// (see ForEachCtx for the cancellation contract).
func ForEachScratchCtx[S any](ctx context.Context, workers, n int, newScratch func() S, fn func(i int, scratch S) error) error {
	return forEachScratchCtx(ctx, workers, n, newScratch, fn)
}

// forEachScratchCtx is the shared fan-out core: ForEachCtx is the S =
// struct{} instantiation, so the semantics documented there (lowest-index
// error wins, panics captured per item, ctx checked before each claim)
// hold for every variant by construction.
func forEachScratchCtx[S any](ctx context.Context, workers, n int, newScratch func() S, fn func(i int, scratch S) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline fast path: identical semantics (first error by index,
		// panics captured, ctx checked per item), none of the goroutine
		// machinery.
		scratch := newScratch()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runItem(i, scratch, fn); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch S
			made := false
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					// Record the cancellation at the claimed index and stop
					// claiming; sibling workers observe the same ctx on
					// their next claim.
					errs[i] = err
					return
				}
				if !made {
					// Lazy: a worker that never claims an item never pays
					// for its scratch (workers > items happens on small
					// fan-outs).
					scratch = newScratch()
					made = true
				}
				errs[i] = runItem(i, scratch, fn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runItem invokes fn(i, scratch), converting a panic into a *PanicError.
func runItem[S any](i int, scratch S, fn func(int, S) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p}
		}
	}()
	return fn(i, scratch)
}

// Map runs fn over [0, n) like ForEach and returns the results in item
// order. On error the partial results are discarded and the
// lowest-index error is returned.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cooperative cancellation (see ForEachCtx): a
// cancelled context discards the partial results and returns the
// context's error under the lowest-index-wins rule.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapScratch is Map with per-worker scratch state (see ForEachScratch
// for the ownership contract: scratch is for capacity reuse, never for
// value reuse). Results are returned in item order regardless of which
// worker produced them.
func MapScratch[T, S any](workers, n int, newScratch func() S, fn func(i int, scratch S) (T, error)) ([]T, error) {
	return MapScratchCtx(context.Background(), workers, n, newScratch, fn)
}

// MapScratchCtx is MapScratch with cooperative cancellation (see
// ForEachCtx): a cancelled context discards the partial results and
// returns the context's error under the lowest-index-wins rule.
func MapScratchCtx[T, S any](ctx context.Context, workers, n int, newScratch func() S, fn func(i int, scratch S) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := forEachScratchCtx(ctx, workers, n, newScratch, func(i int, scratch S) error {
		v, err := fn(i, scratch)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Chunks splits [0, n) into at most `workers` contiguous half-open
// ranges of near-equal size, in order. Reductions that are associative
// and commutative (integer sums, maxima, boolean ORs, bottom-k merges)
// can fan out one chunk per range and merge in chunk order for a result
// identical to the serial pass at any worker count.
func Chunks(workers, n int) [][2]int {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([][2]int, 0, workers)
	lo := 0
	for c := 0; c < workers; c++ {
		hi := lo + (n-lo)/(workers-c)
		if hi > lo {
			out = append(out, [2]int{lo, hi})
			lo = hi
		}
	}
	return out
}
