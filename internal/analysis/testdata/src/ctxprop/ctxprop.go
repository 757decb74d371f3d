// Fixture for the ctxpropagation analyzer: fresh root contexts in
// library code and non-ctx twins of XCtx functions.
package ctxprop

import "context"

// SlowCtx is the one entry point; Slow duplicates its logic beside it.
func SlowCtx(ctx context.Context, n int) int {
	_ = ctx
	return n * 2
}

func Slow(n int) int { // want "has context-accepting sibling SlowCtx"
	return n * 2
}

// Run is the delegating wrapper shape: both the twin and its fresh root
// are flagged.
func RunCtx(ctx context.Context, n int) int {
	_ = ctx
	return n + 1
}

func Run(n int) int { // want "has context-accepting sibling RunCtx"
	return RunCtx(context.Background(), n) // want "context.Background"
}

// Detached mints a root context mid-path.
func Detached(n int) int {
	ctx := context.TODO() // want "context.TODO"
	return RunCtx(ctx, n)
}

// DropsCallerCtx has a ctx of its own and still mints a fresh root.
func DropsCallerCtx(ctx context.Context, n int) int {
	_ = ctx
	return RunCtx(context.Background(), n) // want "detaches this path"
}

type T struct{}

// Method twins are siblings through the receiver's method set.
func (T) DoCtx(ctx context.Context) int {
	_ = ctx
	return 1
}

func (T) Do() int { return 1 } // want "has context-accepting sibling DoCtx"

// A twin that also drops a knob is still a second entry point.
func TileCtx(ctx context.Context, n, workers int) int {
	_ = ctx
	return n * workers
}

func Tile(n int) int { // want "has context-accepting sibling TileCtx"
	return n
}
