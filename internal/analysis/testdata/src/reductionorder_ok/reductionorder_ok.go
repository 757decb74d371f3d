// Negative fixture for reductionorder: per-index slots, post-join
// reductions, and a justified suppression produce zero findings.
package reductionorder_ok

import (
	"context"
	"sync"

	"d2t2/internal/par"
)

// Sum reduces after the join — the deterministic shape the analyzer
// pushes toward.
func Sum(ctx context.Context, xs []int) (int, error) {
	parts, err := par.MapCtx(ctx, 4, len(xs), func(i int) (int, error) {
		return xs[i] * xs[i], nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, p := range parts {
		total += p
	}
	return total, nil
}

// Slots writes only into the claimed index's slot.
func Slots(ctx context.Context, xs []int) ([]int, error) {
	out := make([]int, len(xs))
	err := par.ForEachCtx(ctx, 4, len(xs), func(i int) error {
		v := xs[i]
		out[i] = v * v
		return nil
	})
	return out, err
}

// Locked documents a commutative mutex-guarded sum; order independence
// is the justification the suppression records.
func Locked(ctx context.Context, n int) (int, error) {
	var mu sync.Mutex
	total := 0
	err := par.ForEachCtx(ctx, 4, n, func(i int) error {
		mu.Lock()
		//d2t2:ignore reductionorder commutative integer sum under mu
		total += i
		mu.Unlock()
		return nil
	})
	return total, err
}
