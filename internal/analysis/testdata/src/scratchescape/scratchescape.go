// Fixture for the scratchescape analyzer: scratch references leaking
// out of par.ForEachScratchCtx/MapScratchCtx per-item closures.
package scratchescape

import (
	"context"

	"d2t2/internal/par"
)

// Leaks stores a scratch-derived alias to a captured variable.
func Leaks(ctx context.Context, rows [][]int) ([][]int, error) {
	var leaked []int
	out := make([][]int, len(rows))
	err := par.ForEachScratchCtx(ctx, 4, len(rows),
		func() []int { return make([]int, 0, 8) },
		func(i int, scratch []int) error {
			buf := scratch[:0]
			for _, v := range rows[i] {
				buf = append(buf, v*v)
			}
			leaked = buf // want "stored to captured"
			out[i] = append([]int(nil), buf...)
			return nil
		})
	_ = leaked
	return out, err
}

// Returns leaks the scratch as the item result.
func Returns(ctx context.Context, rows [][]int) ([][]int, error) {
	return par.MapScratchCtx(ctx, 4, len(rows),
		func() []int { return make([]int, 0, 8) },
		func(i int, scratch []int) ([]int, error) {
			for _, v := range rows[i] {
				scratch = append(scratch, v*v)
			}
			return scratch, nil // want "leaks worker-private backing as the item result"
		})
}

// Sends leaks a scratch sub-slice over a channel.
func Sends(ctx context.Context, rows [][]int, ch chan []int) error {
	return par.ForEachScratchCtx(ctx, 2, len(rows),
		func() []int { return make([]int, 4) },
		func(i int, scratch []int) error {
			ch <- scratch[:1] // want "sending a scratch-derived value"
			return nil
		})
}

// Wrapped leaks through a composite literal embedding the alias.
type row struct{ vals []int }

func Wrapped(ctx context.Context, rows [][]int) ([]row, error) {
	return par.MapScratchCtx(ctx, 2, len(rows),
		func() []int { return make([]int, 0, 8) },
		func(i int, scratch []int) (row, error) {
			scratch = append(scratch[:0], rows[i]...)
			return row{vals: scratch}, nil // want "leaks worker-private backing"
		})
}
