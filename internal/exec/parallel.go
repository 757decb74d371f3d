package exec

import (
	"context"
	"sync"

	"d2t2/internal/einsum"
	"d2t2/internal/par"
)

// workersFor decides whether a measurement may run in parallel. Traffic
// counters are exact integer sums, so any partition of the outermost
// loop merges to the serial result — parallel execution is always safe
// for pure measurement. With CollectOutput the outermost loop index
// must additionally appear in the output, so every worker's collected
// coordinates are disjoint and the per-key float sums are byte-identical
// to the serial pass.
func workersFor(e *einsum.Expr, opts *Options) int {
	if opts == nil || opts.Workers <= 1 {
		return 1
	}
	if !opts.CollectOutput {
		return opts.Workers
	}
	first := e.Order[0]
	for _, ix := range e.Out.Indices {
		if ix == first {
			return opts.Workers
		}
	}
	return 1
}

// runParallelCtx schedules the outermost loop's coordinate values as
// work units on the par pool: workers claim tiles from a shared counter
// (no modulo striping, so power-law outer fibers load-balance), reuse
// one clone of the runner as per-worker scratch across every tile they
// claim, and the exact integer traffic merges after the join. Panics
// inside a work unit surface as *par.PanicError under the pool's
// lowest-index-error-wins rule, and ctx is consulted before each claim.
func (r *runner) runParallelCtx(ctx context.Context, workers int) error {
	values := r.topValues()
	if len(values) == 0 {
		return ctx.Err()
	}

	// Workers register their scratch runner at construction (under the
	// lock) for the commutative post-join merge — the sanctioned
	// scratch-escape pattern (see par.ForEachScratchCtx).
	var mu sync.Mutex
	var subs []*runner
	newScratch := func() *runner {
		sub := r.clone()
		mu.Lock()
		subs = append(subs, sub)
		mu.Unlock()
		return sub
	}
	err := par.ForEachScratchCtx(ctx, workers, len(values), newScratch, func(i int, sub *runner) error {
		sub.runOne(values[i])
		return nil
	})
	if err != nil {
		return err
	}

	mu.Lock()
	defer mu.Unlock()
	for _, sub := range subs {
		r.mergeFrom(sub)
	}
	return nil
}
