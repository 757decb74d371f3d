// Loader fixture: generic declarations and instantiations of the par
// kit's generic entry points must type-check and analyze cleanly.
package generics

import (
	"context"

	"d2t2/internal/par"
)

type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// Zip instantiates par.MapCtx with a locally declared generic type.
func Zip[K comparable, V any](ctx context.Context, ks []K, vs []V) ([]Pair[K, V], error) {
	return par.MapCtx(ctx, 2, len(ks), func(i int) (Pair[K, V], error) {
		return Pair[K, V]{Key: ks[i], Val: vs[i]}, nil
	})
}

// Doubles instantiates the scratch variant with two type arguments.
func Doubles(ctx context.Context, xs []int) ([]int, error) {
	return par.MapScratchCtx(ctx, 2, len(xs),
		func() []int { return nil },
		func(i int, scratch []int) (int, error) {
			_ = scratch
			return xs[i] * 2, nil
		})
}
