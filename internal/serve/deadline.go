package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineCtx is a request's context: its deadline is fixed when the
// request arrives, but the timer that enforces it is armed lazily — a
// context.WithDeadline over the parent, made the first time something
// waits on the request (Done: a pool hand-off, a flight wait, peer or
// disk I/O, a derived context), or when Err or Value finds the request
// already over. A warm hit that never waits never arms one: the timer,
// its parent registration and its cancel func are most of what a
// per-request context.WithTimeout costs.
//
// Until it is armed the context answers from its parent and the fixed
// deadline, which is what the armed one would say: Err is nil while the
// parent lives and the deadline is ahead. Once armed, every method
// answers from the armed context, so context.Cause (which reads Value)
// sees its cause. A context derived from it finds the armed context's
// cancelCtx through Value and registers with it directly; AfterFunc
// covers the other case, so no derivation starts a watcher goroutine.
type deadlineCtx struct {
	parent   context.Context
	deadline time.Time

	mu       sync.Mutex // serializes arming with release
	armed    atomic.Pointer[armedCtx]
	released atomic.Bool // the handler returned
}

// armedCtx is the context.WithDeadline a deadlineCtx armed.
type armedCtx struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// arm returns the armed context, arming it on the first call. A context
// armed after release is cancelled at once, as the handler's deferred
// cancel would have left it.
func (c *deadlineCtx) arm() context.Context {
	if a := c.armed.Load(); a != nil {
		return a.ctx
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.armed.Load(); a != nil {
		return a.ctx
	}
	ctx, cancel := context.WithDeadline(c.parent, c.deadline)
	if c.released.Load() {
		cancel()
	}
	c.armed.Store(&armedCtx{ctx, cancel})
	return ctx
}

// settled returns the armed context, arming it when the request is over
// without one — the handler returned, the parent is done, or the
// deadline passed — and nil while an unarmed request is still live.
func (c *deadlineCtx) settled() context.Context {
	if a := c.armed.Load(); a != nil {
		return a.ctx
	}
	if c.released.Load() || c.parent.Err() != nil || !time.Now().Before(c.deadline) {
		return c.arm()
	}
	return nil
}

// release ends the request: it stops an armed context's timer and makes
// a later arm cancelled. The handler defers it.
func (c *deadlineCtx) release() {
	c.mu.Lock()
	c.released.Store(true)
	a := c.armed.Load()
	c.mu.Unlock()
	if a != nil {
		a.cancel()
	}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Done() <-chan struct{} { return c.arm().Done() }

func (c *deadlineCtx) Err() error {
	if a := c.settled(); a != nil {
		return a.Err()
	}
	return nil
}

func (c *deadlineCtx) Value(key any) any {
	if a := c.settled(); a != nil {
		return a.Value(key)
	}
	return c.parent.Value(key)
}

// AfterFunc runs f once the armed context is done (see context.AfterFunc).
// context.WithCancel and friends look for this method on a parent they
// cannot otherwise register with, rather than starting a goroutine to
// watch its Done channel.
func (c *deadlineCtx) AfterFunc(f func()) (stop func() bool) {
	return context.AfterFunc(c.arm(), f)
}
