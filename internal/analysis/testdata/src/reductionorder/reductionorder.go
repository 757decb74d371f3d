// Fixture for the reductionorder analyzer: schedule-dependent writes
// inside par fan-out closures.
package reductionorder

import (
	"context"

	"d2t2/internal/par"
)

// Bad exercises the captured-scalar, captured-map, and off-index
// slice-write rules.
func Bad(ctx context.Context, n int) ([]int, map[int]int, error) {
	var all []int
	seen := map[int]int{}
	total := 0
	out := make([]int, n)
	k := 0
	err := par.ForEachCtx(ctx, 4, n, func(i int) error {
		all = append(all, i) // want "assignment to captured"
		seen[i] = i          // want "write to captured map"
		total++              // want "assignment to captured"
		out[k] = i           // want "independent of the claimed item"
		out[i] = i           // legal: the claimed index's slot
		j := i * 2
		out[j%n] = j // legal: index derived from a closure local
		return nil
	})
	_ = total
	return all, seen, err
}

type acc struct{ sum int }

// BadField writes a field through a captured struct.
func BadField(ctx context.Context, n int) error {
	var a acc
	err := par.ForEachCtx(ctx, 2, n, func(i int) error {
		a.sum += i // want "field write through captured"
		return nil
	})
	_ = a
	return err
}

// BadPtr writes through a captured pointer.
func BadPtr(ctx context.Context, n int, p *int) error {
	return par.ForEachCtx(ctx, 2, n, func(i int) error {
		*p = i // want "write through captured pointer"
		return nil
	})
}

// BadMiss writes a captured scalar in ForEachMissCtx's closure, whose
// misses run on the fan-out.
func BadMiss(ctx context.Context, n int) (int, error) {
	misses := 0
	err := par.ForEachMissCtx(ctx, 2, n, func(i int, hitsOnly bool) (bool, error) {
		if hitsOnly {
			return i%2 == 0, nil
		}
		misses++ // want "assignment to captured"
		return true, nil
	})
	return misses, err
}
