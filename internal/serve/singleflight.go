package serve

import (
	"context"
	"sync"
)

// flightGroup coalesces identical concurrent cold requests: N requests
// that canonicalize to the same content-addressed ResponseKey run the
// pipeline once, and every participant is served the leader's exact
// bytes. The group only sees requests that already missed the response
// cache, so a flight exists exactly while one cold pipeline is in the
// air for its key.
//
// Abandonment semantics match the uncoalesced path (PR 4):
//
//   - A participant whose own context dies detaches immediately and is
//     answered from its context error (499/504). The flight keeps
//     running for the remaining participants — a follower hanging up
//     must not cancel the leader's pipeline, and the leader hanging up
//     fails the flight over to live followers instead of killing it.
//   - The LAST participant to leave cancels the flight's context, so an
//     abandoned flight stops claiming work at the pipeline's next item
//     boundary exactly like an abandoned solo request.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	metrics *metrics
	// wg joins every flight runner goroutine; Server.Shutdown waits on
	// it after the compute pool drains so no runner outlives the server.
	wg sync.WaitGroup
}

// flight is one in-air pipeline run. body, state and err are written by
// the runner goroutine before done is closed and read by participants
// only after done is closed, so the channel close is the
// synchronization point; waiters and shared are guarded by the group
// mutex.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	shared  bool
	body    []byte
	state   string // how the leader was served: "miss", or the warm rung's state
	err     error
}

func newFlightGroup(m *metrics) *flightGroup {
	return &flightGroup{flights: make(map[string]*flight), metrics: m}
}

// do runs fn for key, coalescing onto an existing flight when one is in
// the air. fn receives the flight's context — cancelled only when every
// participant has left — and its single result is fanned out to all
// participants: the returned body and error are shared.
//
// Before fn, the flight's leader asks warm (nil asks nothing) for a
// response already kept under key: a flight for key that landed after
// the caller's own warm check and before this one was created persisted
// its response first, so a hit here serves it instead of running the
// pipeline a second time. A warm hit is not counted as a leader.
//
// state reports how the caller was served: "coalesced" when it joined
// an existing flight (a follower); as the flight's leader, warm's state
// on a warm hit, else "miss". When ctx dies first, do returns ctx.Err()
// and the flight flies on without this participant.
func (g *flightGroup) do(ctx context.Context, key string, warm func() ([]byte, string, bool), fn func(ctx context.Context) ([]byte, error)) (body []byte, state string, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.waiters++
		if !f.shared {
			f.shared = true
			g.metrics.add("singleflight_shared", 1)
		}
		g.mu.Unlock()
		g.metrics.add("pool_coalesced", 1)
		return g.wait(ctx, key, f, true)
	}

	// Leader: the flight context deliberately derives from Background,
	// not from the leader's request context — the leader leaving must
	// not take live followers down with it. Lifetime is bounded because
	// every participant carries the server's RequestTimeout and the last
	// one out cancels the flight.
	//d2t2:ignore ctxpropagation flight outlives its leader by design; lifetime bounded by RequestTimeout
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.flights[key] = f
	g.wg.Add(1)
	g.mu.Unlock()
	hit := false
	if warm != nil {
		f.body, f.state, hit = warm()
	}
	if !hit {
		g.metrics.add("singleflight_leader", 1)
		f.state = "miss"
	}
	go func() {
		defer g.wg.Done()
		if !hit {
			f.body, f.err = fn(fctx)
		}
		g.mu.Lock()
		// Identity-checked: a late arrival after the last participant
		// detached this flight may have started a fresh one under the
		// same key.
		if g.flights[key] == f {
			delete(g.flights, key)
		}
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return g.wait(ctx, key, f, false)
}

// wait blocks one participant on a flight until the result lands or the
// participant's own context dies, then runs the departure bookkeeping.
func (g *flightGroup) wait(ctx context.Context, key string, f *flight, follower bool) ([]byte, string, error) {
	state := "miss"
	if follower {
		state = "coalesced"
	}
	select {
	case <-f.done:
		g.depart(key, f, false)
		if !follower {
			state = f.state
		}
		return f.body, state, f.err
	case <-ctx.Done():
		g.depart(key, f, true)
		return nil, state, ctx.Err()
	}
}

// depart removes one participant from a flight. An early departure
// (the participant's context died before the result landed) that is the
// LAST one detaches the flight from the map — so a new request starts
// fresh instead of joining a doomed flight — and cancels the flight's
// context to stop the pipeline.
func (g *flightGroup) depart(key string, f *flight, early bool) {
	g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && early && g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()
	if early {
		g.metrics.add("singleflight_detached", 1)
	}
	if last && early {
		f.cancel()
	}
}

// join blocks until every flight runner has exited. Called during
// Shutdown after the compute pool drains: runners that had not yet
// submitted their job get ErrShuttingDown and terminate promptly.
func (g *flightGroup) join() { g.wg.Wait() }
