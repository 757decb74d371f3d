package par

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pendingOn reports how many askers are inside Do for key.
func pendingOn[K comparable, V any](m *Memo[K, V], key K) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.m[key]; e != nil {
		return e.pending.Load()
	}
	return 0
}

// flight starts asks concurrent askers of key whose computation blocks
// until release is closed, waits until all of them are inside Do, and
// returns a function that releases the flight and collects every
// asker's outcome.
func flight(t *testing.T, m *Memo[string, int], key string, asks int, fn func() (int, error)) func() ([]int, []error) {
	t.Helper()
	release := make(chan struct{})
	vals := make([]int, asks)
	errs := make([]error, asks)
	var wg sync.WaitGroup
	for i := 0; i < asks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = m.Do(key, 0, func() (int, error) {
				<-release
				return fn()
			})
		}(i)
	}
	for pendingOn(m, key) != int32(asks) {
		runtime.Gosched()
	}
	return func() ([]int, []error) {
		close(release)
		wg.Wait()
		return vals, errs
	}
}

func TestMemoOneFlightPerKey(t *testing.T) {
	var m Memo[string, int]
	var runs atomic.Int32
	land := flight(t, &m, "k", 16, func() (int, error) {
		runs.Add(1)
		return 42, nil
	})
	vals, errs := land()
	for i := range vals {
		if vals[i] != 42 || errs[i] != nil {
			t.Fatalf("asker %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
	}
	v, err := m.Do("k", 0, func() (int, error) { t.Fatal("a kept key was computed again"); return 0, nil })
	if v != 42 || err != nil || runs.Load() != 1 || m.Runs() != 1 || m.Len() != 1 {
		t.Fatalf("after the flight: (%d, %v), %d runs (memo counts %d), %d keys; want (42, nil), 1 run, 1 key",
			v, err, runs.Load(), m.Runs(), m.Len())
	}
}

func TestMemoErrorReachesEveryWaiterAndIsNotKept(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	var runs atomic.Int32
	land := flight(t, &m, "k", 8, func() (int, error) {
		runs.Add(1)
		return 0, boom
	})
	_, errs := land()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("asker %d got %v, want the flight's error", i, err)
		}
	}
	if runs.Load() != 1 || m.Len() != 0 {
		t.Fatalf("failed flight: %d runs, %d keys kept; want 1 run, 0 keys", runs.Load(), m.Len())
	}
	v, err := m.Do("k", 0, func() (int, error) { runs.Add(1); return 7, nil })
	if v != 7 || err != nil || runs.Load() != 2 || m.Len() != 1 {
		t.Fatalf("retry: (%d, %v), %d runs, %d keys; want (7, nil), 2 runs, 1 key", v, err, runs.Load(), m.Len())
	}
}

func TestMemoPanicFailsWaitersAndIsNotKept(t *testing.T) {
	var m Memo[string, int]
	release := make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		_, _ = m.Do("k", 0, func() (int, error) {
			<-release
			panic("bad shape")
		})
	}()
	for pendingOn(&m, "k") != 1 {
		runtime.Gosched()
	}
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, werr = m.Do("k", 0, func() (int, error) { return 0, nil })
	}()
	for pendingOn(&m, "k") != 2 {
		runtime.Gosched()
	}
	close(release)
	if p := <-leaderDone; p != "bad shape" {
		t.Fatalf("the leader recovered %v, want its own panic", p)
	}
	wg.Wait()
	if !errors.Is(werr, errFlightPanicked) {
		t.Fatalf("waiter got %v, want errFlightPanicked", werr)
	}
	if m.Len() != 0 {
		t.Fatalf("a panicked flight kept its key")
	}
}

func TestMemoLimit(t *testing.T) {
	var m Memo[int, int]
	var runs int
	fn := func(v int) func() (int, error) {
		return func() (int, error) { runs++; return v * v, nil }
	}
	for k := 0; k < 5; k++ {
		if v, _ := m.Do(k, 3, fn(k)); v != k*k {
			t.Fatalf("key %d: %d", k, v)
		}
	}
	if m.Len() != 3 || runs != 5 {
		t.Fatalf("%d keys kept, %d runs; want 3 kept, 5 runs", m.Len(), runs)
	}
	for k := 0; k < 5; k++ {
		m.Do(k, 3, fn(k))
	}
	if runs != 7 || m.Runs() != 7 {
		t.Fatalf("repeat asks ran %d computations (memo counts %d in all), want 2 (the keys past the limit)", runs-5, m.Runs())
	}
}

// TestMemoDeepEqual checks that two memos that kept the same values
// compare equal, so results embedding landed memos can be compared
// whole.
func TestMemoDeepEqual(t *testing.T) {
	var a, b Memo[string, []int]
	for _, k := range []string{"x", "y"} {
		a.Do(k, 0, func() ([]int, error) { return []int{len(k)}, nil })
	}
	for _, k := range []string{"y", "x"} {
		b.Do(k, 0, func() ([]int, error) { return []int{len(k)}, nil })
	}
	if !reflect.DeepEqual(&a, &b) {
		t.Fatal("memos with the same kept values differ")
	}
}
