// Fixture for suppression-extent rules: an annotation above a
// multi-line statement covers the statement's whole extent, but never
// reaches into a function literal's body.
package ignoreext

import (
	"context"

	"d2t2/internal/par"
)

func work(ctx context.Context, n int) int {
	_ = ctx
	return n
}

// covered: the ignore sits above a call split across lines; the fresh
// root context is two lines below the annotation but inside the
// statement's extent, so it is suppressed.
func covered(n int) int {
	//d2t2:ignore ctxpropagation the fixture detaches this call on purpose
	m := work(
		context.Background(),
		n,
	)
	return m
}

// uncovered: the same call without an annotation must still be flagged.
func uncovered(n int) int {
	m := work(
		context.Background(), // the surviving ctxpropagation finding
		n,
	)
	return m
}

// closureNotBlanketed: the statement extent rule must not let an
// annotation above a par fan-out swallow findings inside the closure
// body — the write below survives.
func closureNotBlanketed(n int) error {
	total := 0
	//d2t2:ignore reductionorder annotation on the call must not blanket the closure
	err := par.ForEach(2, n, func(i int) error {
		total += i // the surviving reductionorder finding
		return nil
	})
	_ = total
	return err
}
