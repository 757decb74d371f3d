package par

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errFlightPanicked is the error the waiters of a Memo flight get when
// the computation panicked in the asker that ran it.
var errFlightPanicked = errors.New("par: memoized computation panicked")

// Memo is a concurrency-safe single-flight memo of a pure function: the
// first asker of a key computes its value, concurrent askers of the same
// key wait for that one computation, and later askers read the kept
// value. The zero value is an empty memo ready for use.
//
// Entries hold a sync.Once beside the value rather than a channel, so a
// memo whose flights have all landed is plain data (reflect.DeepEqual
// compares two such memos by their keys and values).
type Memo[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*memoEntry[V]
	runs atomic.Int64 // calls of a Do's fn
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
	// pending counts the askers inside Do for this entry; it is back to
	// zero whenever no flight is in progress.
	pending atomic.Int32
}

// Do returns the value kept under key, computing it with fn on the
// key's first ask. limit bounds the number of kept keys (<= 0 means
// unbounded): once the memo holds limit keys, a new key is computed for
// its asker alone and not kept.
//
// An error is never kept: every asker waiting on the failed flight gets
// the error, and the key is dropped, so the next ask computes again. A
// panic in fn propagates to the asker that ran it; its waiters get an
// error saying the computation panicked.
func (m *Memo[K, V]) Do(key K, limit int, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.m[key]
	if !ok {
		if limit > 0 && len(m.m) >= limit {
			m.mu.Unlock()
			m.runs.Add(1)
			return fn()
		}
		if m.m == nil {
			m.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		m.m[key] = e
	}
	e.pending.Add(1)
	m.mu.Unlock()
	defer e.pending.Add(-1)
	e.once.Do(func() {
		e.err = errFlightPanicked // replaced unless fn panics
		defer func() {
			if e.err != nil {
				m.forget(key, e)
			}
		}()
		m.runs.Add(1)
		e.v, e.err = fn()
	})
	if e.err != nil {
		var zero V
		return zero, e.err
	}
	return e.v, nil
}

// forget drops key when it still names the failed entry e.
func (m *Memo[K, V]) forget(key K, e *memoEntry[V]) {
	m.mu.Lock()
	if m.m[key] == e {
		delete(m.m, key)
	}
	m.mu.Unlock()
}

// Runs reports how many computations the memo has run: the keys it
// computed once, failed flights, and asks past its limit.
func (m *Memo[K, V]) Runs() int64 { return m.runs.Load() }

// Len reports how many keys the memo holds, flights in progress
// included.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
