// Negative fixture for scratchescape: copies, scratch-internal writes,
// the constructor-registration merge pattern, and a justified
// suppression produce zero findings.
package scratchescape_ok

import (
	"context"
	"sync"

	"d2t2/internal/par"
)

// Copies materializes fresh backing before anything leaves the closure.
func Copies(ctx context.Context, rows [][]int) ([][]int, error) {
	out := make([][]int, len(rows))
	var last []int
	err := par.ForEachScratchCtx(ctx, 4, len(rows),
		func() []int { return make([]int, 0, 8) },
		func(i int, scratch []int) error {
			scratch = append(scratch[:0], rows[i]...)
			out[i] = append([]int(nil), scratch...)
			//d2t2:ignore scratchescape diagnostics-only tap, overwritten before reuse matters
			last = scratch
			return nil
		})
	_ = last
	return out, err
}

type agg struct{ total int }

// Registered is the stats-collector pattern: the scratch *constructor*
// may retain what it creates for a post-join commutative merge; only
// the per-item closure is under the escape contract.
func Registered(ctx context.Context, n int) (int, error) {
	var mu sync.Mutex
	var aggs []*agg
	err := par.ForEachScratchCtx(ctx, 4, n,
		func() *agg {
			a := &agg{}
			mu.Lock()
			aggs = append(aggs, a)
			mu.Unlock()
			return a
		},
		func(i int, scratch *agg) error {
			scratch.total += i
			return nil
		})
	sum := 0
	for _, a := range aggs {
		sum += a.total
	}
	return sum, err
}
