// Package par is the cold-path parallelism kit: a bounded worker pool
// with ordered fan-out/fan-in used by the tiler, the statistics
// collector and the optimizer's shape sweep. Its contract is the one the
// pipeline's determinism gate enforces: for any worker count, results
// are delivered in item order, the first error (by item index, not by
// wall clock; an item's own error before a context error) wins, and
// worker panics surface as errors rather than crashing sibling
// goroutines mid-merge. Every goroutine is joined before a call returns
// — no launch here outlives its caller (the goroutinehygiene analyzer
// checks the join signals). Memo (memo.go) is the single-flight memo the
// search's shape, projection and prediction caches share.
//
// Two closure contracts are machine-checked by cmd/d2t2vet: the
// reductionorder analyzer flags schedule-dependent writes to captured
// state inside ForEach*/Map* closures (write into the claimed index's
// slot, reduce after the join), and the scratchescape analyzer flags
// scratch values of the *Scratch variants escaping their closure (see
// ForEachScratchCtx for the ownership rules).
package par

import (
	"context"
	"errors"
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

// ForEachCtx runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (workers <= 0 meaning all cores) and returns the error of
// the lowest-index item that failed, or nil. Indices are claimed from a
// shared counter, so the schedule varies run to run — callers must write
// results into per-index state (slices, not shared maps) so the outcome
// is independent of the schedule. A panic inside fn is captured as a
// *PanicError for its index and competes for lowest-index like any other
// failure; remaining items still run.
//
// Cancellation is cooperative: every worker consults ctx.Err() before
// claiming the next index, so a cancelled or deadline-expired context
// stops the fan-out at the next item boundary instead of running the
// remaining items to completion. The item a worker observed the
// cancellation at records ctx.Err() as its error — so a cancelled call
// returns the context's error (wrapped results must test with
// errors.Is) — but any item's own error outranks a context error at any
// index: an item that cancels the context and fails is the root cause
// the caller sees. Items that completed before the cancellation keep
// their outcomes; in-flight items are never interrupted mid-fn. With a
// never-cancelled context the results written by fn are byte-identical
// at any worker count.
//
// An item must be worth its claim: an atomic add on a counter every
// worker contends for, then a ctx.Err() call, which locks a cancelCtx's
// mutex. A loop over many cheap items — a sort of a few entries per
// micro tile — fans out over Chunks ranges instead, a few per worker,
// as the tiler's per-group passes do.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachScratchCtx(ctx, workers, n, nopScratch, func(i int, _ struct{}) error {
		return fn(i)
	})
}

// nopScratch is the zero-cost scratch constructor the scratch-free entry
// points reuse (one shared instantiation instead of a closure per call).
func nopScratch() struct{} { return struct{}{} }

// ForEachScratchCtx is ForEachCtx with per-worker scratch state: each
// worker lazily creates one scratch value S via newScratch on its first
// claimed item and hands the same value to every subsequent item it
// runs. The scratch is worker-private — fn may mutate it freely without
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
// byte-identical at any worker count exactly as with ForEachCtx.
//
// It is the shared fan-out core: ForEachCtx is the S = struct{}
// instantiation, so the semantics documented there (lowest-index item
// error wins over any context error, panics captured per item, ctx
// checked before each claim) hold for every variant by construction.
func ForEachScratchCtx[S any](ctx context.Context, workers, n int, newScratch func() S, fn func(i int, scratch S) error) error {
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
	return firstError(errs)
}

// firstError is the fan-out's verdict over its per-index errors: the
// lowest-index item error, else the lowest-index context error. A
// cancellation an item error caused can land at a lower index than the
// item — a worker that claimed it before the cancel and stalled records
// ctx.Err() there, or its fn returns it — so a context error must not
// outrank the root cause.
func firstError(errs []error) error {
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			return err
		}
	}
	return ctxErr
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

// ForEachMissCtx is ForEachCtx for items a memo mostly holds already.
// fn(i, true) runs first for every item, in item order on the calling
// goroutine, and reports whether it finished item i from what the
// memos hold; fn(i, false) then runs the items that pass did not finish
// through ForEachCtx, so a fan-out starts only for two or more of them
// and a single one runs inline. A lookup is not worth a contended
// claim, let alone a goroutine. With hitsOnly set fn must not wait on a
// flight (par.Memo.Landed), and without it fn must give item i what the
// hit pass would have: then the outcome, the lowest-index error
// included, is ForEachCtx's over fn(i, false). The hit pass checks ctx
// before each item and stops at its first error, after which only the
// earlier misses run. One closure serves both passes, so the fan-out
// contract (reductionorder) is checked on all of it.
func ForEachMissCtx(ctx context.Context, workers, n int, fn func(i int, hitsOnly bool) (done bool, err error)) error {
	var misses []int
	var hitErr error
	for i := 0; i < n && hitErr == nil; i++ {
		if hitErr = ctx.Err(); hitErr != nil {
			break
		}
		var done bool
		if done, hitErr = runHit(i, fn); !done && hitErr == nil {
			misses = append(misses, i)
		}
	}
	if len(misses) == 0 {
		return hitErr
	}
	err := ForEachCtx(ctx, workers, len(misses), func(j int) error {
		_, err := fn(misses[j], false)
		return err
	})
	// Every miss precedes a hit pass error, so a miss's item error
	// outranks it, and any item error outranks a context error.
	return firstError([]error{err, hitErr})
}

// runHit invokes fn(i, true), converting a panic into a *PanicError.
func runHit(i int, fn func(int, bool) (bool, error)) (done bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			done, err = true, &PanicError{Value: p}
		}
	}()
	return fn(i, true)
}

// MapCtx runs fn over [0, n) like ForEachCtx and returns the results
// in item order. On error — a cancelled context included — the partial
// results are discarded and the lowest-index error is returned.
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

// MapScratchCtx is MapCtx with per-worker scratch state (see
// ForEachScratchCtx for the ownership contract: scratch is for capacity
// reuse, never for value reuse). Results are returned in item order
// regardless of which worker produced them.
func MapScratchCtx[T, S any](ctx context.Context, workers, n int, newScratch func() S, fn func(i int, scratch S) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachScratchCtx(ctx, workers, n, newScratch, func(i int, scratch S) error {
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
