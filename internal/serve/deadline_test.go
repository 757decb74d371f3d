package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

type deadlineTestKey struct{}

// TestLazyDeadlineConcurrent drives Done, Err, AfterFunc, Value and
// derivation on one request context from several goroutines while its
// deadline passes: whichever method arms it, every goroutine sees the
// deadline error and its cause, the parent's value, a closed Done and a
// derived context cancelled with it, and every AfterFunc runs once. The
// second round leaves arming to the Err and Value pollers alone.
func TestLazyDeadlineConcurrent(t *testing.T) {
	// A cancelable parent, as net/http's is: Cause then reads the cause
	// from the cancelCtx that Value finds.
	parent, cancelParent := context.WithCancel(context.WithValue(context.Background(), deadlineTestKey{}, "v"))
	defer cancelParent()
	for _, waiters := range []bool{true, false} {
		giveUp := time.Now().Add(5 * time.Second)
		c := &deadlineCtx{parent: parent, deadline: time.Now().Add(20 * time.Millisecond)}
		const goroutines = 8
		ran := make(chan struct{}, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch {
				case waiters && g%4 == 0:
					<-c.Done()
				case waiters && g%4 == 1:
					c.AfterFunc(func() { ran <- struct{}{} })
					<-ran
				case waiters && g%4 == 2:
					d, cancel := context.WithCancel(c)
					<-d.Done()
					cancel()
				case g%2 == 0:
					for c.Err() == nil && time.Now().Before(giveUp) {
						time.Sleep(time.Millisecond)
					}
				default:
					for context.Cause(c) == nil && time.Now().Before(giveUp) {
						if v := c.Value(deadlineTestKey{}); v != "v" {
							t.Errorf("Value = %v before the deadline, want the parent's", v)
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
				if err := c.Err(); err != context.DeadlineExceeded {
					t.Errorf("Err = %v, want %v", err, context.DeadlineExceeded)
				}
				if err := context.Cause(c); err != context.DeadlineExceeded {
					t.Errorf("Cause = %v, want %v", err, context.DeadlineExceeded)
				}
				if v := c.Value(deadlineTestKey{}); v != "v" {
					t.Errorf("Value = %v after the deadline, want the parent's", v)
				}
				d, cancel := context.WithCancel(c)
				defer cancel()
				select {
				case <-d.Done():
				default:
					t.Error("a context derived after the deadline is not done")
				}
				if err := d.Err(); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("derived Err = %v, want %v", err, context.DeadlineExceeded)
				}
			}(g)
		}
		wg.Wait()
		if len(ran) != 0 {
			t.Errorf("%d AfterFunc calls ran more than once", len(ran))
		}
		c.release()
		if err := c.Err(); err != context.DeadlineExceeded {
			t.Errorf("Err after release = %v, want the deadline's", err)
		}
	}
}

// TestLazyDeadlineFixedAtArrival: the deadline counts from the
// context's creation (the request's arrival), not from when it is
// armed — a context first waited on after its deadline is already done.
func TestLazyDeadlineFixedAtArrival(t *testing.T) {
	at := time.Now().Add(10 * time.Millisecond)
	c := &deadlineCtx{parent: context.Background(), deadline: at}
	defer c.release()
	if d, ok := c.Deadline(); !ok || !d.Equal(at) {
		t.Fatalf("Deadline = %v, %v; want %v, true", d, ok, at)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err = %v before the deadline", err)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-c.Done():
	default:
		t.Fatal("armed after its deadline, the context is not done")
	}
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want %v", err, context.DeadlineExceeded)
	}
}

// TestLazyDeadlineRelease: once the handler returns, the context is
// cancelled whether or not it was armed, and it still answers the
// parent's values.
func TestLazyDeadlineRelease(t *testing.T) {
	parent := context.WithValue(context.Background(), deadlineTestKey{}, "v")
	for _, armFirst := range []bool{false, true} {
		c := &deadlineCtx{parent: parent, deadline: time.Now().Add(time.Hour)}
		if armFirst {
			c.Done()
		}
		c.release()
		select {
		case <-c.Done():
		default:
			t.Fatalf("armed first %v: not done after release", armFirst)
		}
		if err := c.Err(); err != context.Canceled {
			t.Errorf("armed first %v: Err = %v, want %v", armFirst, err, context.Canceled)
		}
		if v := c.Value(deadlineTestKey{}); v != "v" {
			t.Errorf("armed first %v: Value = %v, want the parent's", armFirst, v)
		}
	}
}

// TestLazyDeadlineDerivedNoWatchers: contexts derived from a request
// context, directly or under a value, register with its armed context
// instead of each starting a goroutine to watch it, and are cancelled
// with it.
func TestLazyDeadlineDerivedNoWatchers(t *testing.T) {
	c := &deadlineCtx{parent: context.Background(), deadline: time.Now().Add(time.Hour)}
	base := runtime.NumGoroutine()
	const n = 64
	var derived []context.Context
	for i := 0; i < n; i++ {
		var parent context.Context = c
		if i%2 == 1 {
			parent = context.WithValue(c, deadlineTestKey{}, i)
		}
		d, cancel := context.WithCancel(parent)
		defer cancel()
		derived = append(derived, d)
	}
	if grown := runtime.NumGoroutine() - base; grown >= n/2 {
		t.Errorf("%d derived contexts started %d goroutines", n, grown)
	}
	c.release()
	for i, d := range derived {
		select {
		case <-d.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("derived context %d not cancelled with its parent", i)
		}
	}
}

// doneCounter is a parent context that counts the calls of its Done:
// arming a request context derives from the parent, which asks it.
type doneCounter struct {
	context.Context
	mu    sync.Mutex
	dones int
}

func (c *doneCounter) Done() <-chan struct{} {
	c.mu.Lock()
	c.dones++
	c.mu.Unlock()
	return c.Context.Done()
}

// TestLazyDeadlineWarmHitUnarmed: a warm memory hit arms no deadline
// and decodes nothing. The parent counts arming; the artifact's bytes
// in memory are corrupted under the resident body, so a hit that
// decoded them would fail their CRC and recompute ("miss"), not serve
// the body ("hit").
func TestLazyDeadlineWarmHitUnarmed(t *testing.T) {
	s, id := newRungServer(t)
	bodies := rungBodies(id)
	for _, b := range []struct{ path, body string }{bodies[0], bodies[9]} {
		fill := serveRaw(s, b.path, "application/json", b.body)
		if fill.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", b.path, fill.Code, fill.Body)
		}
		if rec := serveRaw(s, b.path, "application/json", b.body); rec.Header().Get("X-D2T2-Cache") != "hit" {
			t.Fatalf("%s: first repeat served %q, want a hit", b.path, rec.Header().Get("X-D2T2-Cache"))
		}
		key := fill.Header().Get("X-D2T2-Key")
		art, src, err := s.store.Get(key)
		if err != nil || src != SourceMem {
			t.Fatalf("%s: artifact not in memory (%v, %v)", b.path, src, err)
		}
		art[len(art)-1] ^= 0xff // the RESP section's CRC
		parent := &doneCounter{Context: context.Background()}
		req := httptest.NewRequest(http.MethodPost, b.path, strings.NewReader(b.body)).WithContext(parent)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		art[len(art)-1] ^= 0xff
		if state := rec.Header().Get("X-D2T2-Cache"); rec.Code != http.StatusOK || state != "hit" {
			t.Fatalf("%s: status %d, cache %q; want a 200 hit from the resident body", b.path, rec.Code, state)
		}
		if rec.Body.String() != fill.Body.String() {
			t.Fatalf("%s: warm body differs from the fill:\n%s\n%s", b.path, rec.Body, fill.Body)
		}
		if parent.dones != 0 {
			t.Errorf("%s: a warm hit armed its deadline (%d Done calls on the parent)", b.path, parent.dones)
		}
	}
}

// TestLazyDeadlineParentCancelled: a client that hangs up before its
// request first waits is still answered 499 and counted as cancelled,
// not as an error. The one pool worker is held, so the request is
// waiting in its flight when its parent is already cancelled.
func TestLazyDeadlineParentCancelled(t *testing.T) {
	s, id := newRungServer(t)
	held, release := make(chan struct{}), make(chan struct{})
	go s.pool.run(context.Background(), func() { close(held); <-release })
	<-held
	defer close(release)
	errs := s.Metric("http_errors")
	parent, cancel := context.WithCancel(context.Background())
	s.beforeFlight = cancel
	body := rungBodies(id)[0].body
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)).WithContext(parent)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, statusClientClosedRequest, rec.Body)
	}
	if got := s.Metric("requests_cancelled"); got != 1 {
		t.Errorf("requests_cancelled = %d, want 1", got)
	}
	if got := s.Metric("http_errors"); got != errs {
		t.Errorf("http_errors moved %d -> %d on a hang-up", errs, got)
	}
}
