// Negative fixture for ctxpropagation: threaded contexts, a name that
// ends in Ctx with no twin, and a justified suppression produce zero
// findings.
package ctxprop_ok

import "context"

func SeedCtx(ctx context.Context, n int) int {
	_ = ctx
	return n
}

// warm deliberately detaches a fire-and-forget path; the suppression
// carries the justification.
func warm(ctx context.Context, n int) int {
	_ = ctx
	//d2t2:ignore ctxpropagation cache warm outlives the request on purpose
	bg := context.Background()
	return SeedCtx(bg, n)
}

// threaded does it right: the caller's ctx reaches the Ctx function.
func threaded(ctx context.Context, n int) int {
	return SeedCtx(ctx, warm(ctx, n))
}

// Count shares a prefix with no Ctx function, and CountAll's would-be
// sibling takes no context first: neither is a twin.
func Count(n int) int { return n }

func CountAllCtx(n, m int, ctx context.Context) int {
	_ = ctx
	return n + m
}

func CountAll(n int) int { return n }
