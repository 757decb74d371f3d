package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForWaiters polls until the flight under key has at least n
// participants (the group mutex makes the read safe in-package).
func waitForWaiters(t *testing.T, g *flightGroup, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		f := g.flights[key]
		w := 0
		if f != nil {
			w = f.waiters
		}
		g.mu.Unlock()
		if w >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flight %q never reached %d participants", key, n)
}

type flightResult struct {
	body      []byte
	coalesced bool
	err       error
}

// TestSingleflightGroupCoalesces proves the core contract with a gated
// fn: 8 concurrent do calls for one key run fn exactly once, exactly one
// caller is the leader, and every caller gets the same bytes.
func TestSingleflightGroupCoalesces(t *testing.T) {
	m := newMetrics()
	g := newFlightGroup(m)
	gate := make(chan struct{})
	var runs atomic.Int32
	fn := func(ctx context.Context) ([]byte, error) {
		runs.Add(1)
		<-gate
		return []byte("payload"), nil
	}
	const n = 8
	results := make(chan flightResult, n)
	for i := 0; i < n; i++ {
		go func() {
			b, state, err := g.do(context.Background(), "k", nil, fn)
			results <- flightResult{b, state == "coalesced", err}
		}()
	}
	waitForWaiters(t, g, "k", n)
	close(gate)
	leaders := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("do: %v", r.err)
		}
		if string(r.body) != "payload" {
			t.Fatalf("body %q, want payload", r.body)
		}
		if !r.coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want exactly 1", leaders)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := m.get("singleflight_leader"); got != 1 {
		t.Errorf("singleflight_leader = %d, want 1", got)
	}
	if got := m.get("pool_coalesced"); got != n-1 {
		t.Errorf("pool_coalesced = %d, want %d", got, n-1)
	}
	if got := m.get("singleflight_shared"); got != 1 {
		t.Errorf("singleflight_shared = %d, want 1", got)
	}
	g.join()
}

// TestSingleflightFollowerDetach checks one half of the abandonment
// contract: a follower whose context dies leaves immediately with its
// own context error while the leader's run proceeds uncancelled.
func TestSingleflightFollowerDetach(t *testing.T) {
	m := newMetrics()
	g := newFlightGroup(m)
	gate := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		<-gate
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	}
	leaderRes := make(chan flightResult, 1)
	go func() {
		b, state, err := g.do(context.Background(), "k", nil, fn)
		leaderRes <- flightResult{b, state == "coalesced", err}
	}()
	waitForWaiters(t, g, "k", 1)

	fctx, fcancel := context.WithCancel(context.Background())
	followerRes := make(chan flightResult, 1)
	go func() {
		b, state, err := g.do(fctx, "k", nil, fn)
		followerRes <- flightResult{b, state == "coalesced", err}
	}()
	waitForWaiters(t, g, "k", 2)
	fcancel()

	fr := <-followerRes
	if !errors.Is(fr.err, context.Canceled) || !fr.coalesced {
		t.Fatalf("follower got (%v, coalesced=%v), want its own context.Canceled as a follower", fr.err, fr.coalesced)
	}
	if got := m.get("singleflight_detached"); got != 1 {
		t.Errorf("singleflight_detached = %d, want 1", got)
	}

	close(gate)
	lr := <-leaderRes
	if lr.err != nil || string(lr.body) != "ok" {
		t.Fatalf("leader got (%q, %v), want ok — a follower hang-up must not cancel the flight", lr.body, lr.err)
	}
	g.join()
}

// TestSingleflightLeaderFailover checks the other half: the LEADER
// leaving hands the flight over to a live follower instead of killing
// the run.
func TestSingleflightLeaderFailover(t *testing.T) {
	m := newMetrics()
	g := newFlightGroup(m)
	gate := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		<-gate
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	}
	lctx, lcancel := context.WithCancel(context.Background())
	leaderRes := make(chan flightResult, 1)
	go func() {
		b, state, err := g.do(lctx, "k", nil, fn)
		leaderRes <- flightResult{b, state == "coalesced", err}
	}()
	waitForWaiters(t, g, "k", 1)

	followerRes := make(chan flightResult, 1)
	go func() {
		b, state, err := g.do(context.Background(), "k", nil, fn)
		followerRes <- flightResult{b, state == "coalesced", err}
	}()
	waitForWaiters(t, g, "k", 2)
	lcancel()

	lr := <-leaderRes
	if !errors.Is(lr.err, context.Canceled) || lr.coalesced {
		t.Fatalf("leader got (%v, coalesced=%v), want its own context.Canceled as the leader", lr.err, lr.coalesced)
	}

	close(gate)
	fr := <-followerRes
	if fr.err != nil || string(fr.body) != "ok" {
		t.Fatalf("follower got (%q, %v), want ok — the flight must fail over to live followers", fr.body, fr.err)
	}
	g.join()
}

// TestSingleflightAbandonCancelsRun checks that the LAST participant to
// leave cancels the flight's context (abandoned compute stops) and
// detaches the flight, so the next identical request starts fresh
// instead of joining a doomed run.
func TestSingleflightAbandonCancelsRun(t *testing.T) {
	m := newMetrics()
	g := newFlightGroup(m)
	started := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done() // the abandoned pipeline observes the cancellation
		return nil, ctx.Err()
	}
	cctx, cancel := context.WithCancel(context.Background())
	res := make(chan flightResult, 1)
	go func() {
		b, state, err := g.do(cctx, "k", nil, fn)
		res <- flightResult{b, state == "coalesced", err}
	}()
	<-started
	cancel()
	r := <-res
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("abandoned participant got %v, want context.Canceled", r.err)
	}
	// fn only returns once the flight ctx is cancelled; join proves it.
	g.join()

	// A fresh request after the abandonment must start a new flight.
	b, state, err := g.do(context.Background(), "k", nil,
		func(ctx context.Context) ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || state != "miss" || string(b) != "fresh" {
		t.Fatalf("post-abandon do got (%q, %s, %v), want a fresh leader run", b, state, err)
	}
	if got := m.get("singleflight_leader"); got != 2 {
		t.Errorf("singleflight_leader = %d, want 2 (abandoned + fresh)", got)
	}
	g.join()
}

// TestSingleflightOptimizeE2E drives the wired path: 8 identical
// concurrent cold optimize requests run the pipeline once (the expvar
// counters prove it) and every client receives byte-identical bodies,
// distinguished only by the X-D2T2-Cache header — one "miss" from the
// leader, the rest "coalesced" (or "hit" for a straggler that arrived
// after the flight landed).
func TestSingleflightOptimizeE2E(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", cancelScale)
	enc, err := json.Marshal(optimizeReq(id))
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	bodies := make([][]byte, n)
	caches := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(enc))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
			caches[i] = resp.Header.Get("X-D2T2-Cache")
		}(i)
	}
	wg.Wait()

	miss, coalesced, hit := 0, 0, 0
	for i := 0; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs:\n 0: %s %d: %s", i, bodies[0], i, bodies[i])
		}
		switch caches[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			hit++
		default:
			t.Errorf("request %d: X-D2T2-Cache %q", i, caches[i])
		}
	}
	if miss != 1 {
		t.Errorf("%d misses, want exactly 1 (one leader ran the pipeline)", miss)
	}
	if coalesced < 1 {
		t.Errorf("no request coalesced — the burst never shared a flight")
	}
	if got := s.Metric("singleflight_leader"); got != 1 {
		t.Errorf("singleflight_leader = %d, want 1", got)
	}
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Errorf("stats_collect_total = %d, want 1 — the pipeline must run once for the burst", got)
	}
	if got := s.Metric("pool_coalesced"); got != int64(coalesced) {
		t.Errorf("pool_coalesced = %d, but %d responses carried the coalesced header", got, coalesced)
	}
	if got := s.Metric("optimize_cache_hits"); got != int64(hit) {
		t.Errorf("optimize_cache_hits = %d, but %d responses carried the hit header", got, hit)
	}

	// A warm request after the burst is a plain cache hit with the same
	// bytes — the leader persisted exactly what everyone was served.
	resp, body := postJSON(t, ts.URL+"/v1/optimize", optimizeReq(id))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-D2T2-Cache") != "hit" {
		t.Fatalf("warm request: status %d cache %q", resp.StatusCode, resp.Header.Get("X-D2T2-Cache"))
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Errorf("warm body differs from coalesced body")
	}
}

// TestSingleflightPredictE2E checks the predict route coalesces the
// same way.
func TestSingleflightPredictE2E(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", cancelScale)
	enc, err := json.Marshal(map[string]any{
		"kernel": testKernel,
		"inputs": map[string]string{"A": id, "B": id},
		"config": map[string]int{"i": 64, "j": 64, "k": 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(enc))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("predict body %d differs", i)
		}
	}
	if got := s.Metric("singleflight_leader"); got != 1 {
		t.Errorf("singleflight_leader = %d, want 1", got)
	}
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Errorf("stats_collect_total = %d, want 1", got)
	}
}

// TestSingleflightDeadline checks a whole coalesced burst against a
// deadline no flight can meet: every participant times out with 504 on
// ITS OWN deadline, the flight is abandoned (the pool job observes the
// cancellation), and the counters attribute each outcome. The server's
// only compute slot is held for the whole burst, so no flight can land
// before the participants' deadlines, however fast the host.
func TestSingleflightDeadline(t *testing.T) {
	// Ingest through a generous sibling server sharing the cache dir, so
	// the ingest itself cannot trip the tight deadline.
	dir := t.TempDir()
	_, tsIngest := newTestServer(t, Config{CacheDir: dir})
	id := ingestGen(t, tsIngest.URL, "C", cancelScale)
	s2, ts2 := newTestServer(t, Config{CacheDir: dir, RequestTimeout: 150 * time.Millisecond, Workers: 1})
	held, release := make(chan struct{}), make(chan struct{})
	go s2.pool.run(context.Background(), func() { close(held); <-release })
	<-held
	defer close(release)

	enc, err := json.Marshal(optimizeReq(id))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts2.URL+"/v1/optimize", "application/json", bytes.NewReader(enc))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusGatewayTimeout {
			t.Errorf("request %d: status %d, want 504", i, code)
		}
	}
	if got := s2.Metric("requests_timeout"); got != n {
		t.Errorf("requests_timeout = %d, want %d — every participant times out on its own deadline", got, n)
	}
	if got := s2.Metric("singleflight_detached"); got != n {
		t.Errorf("singleflight_detached = %d, want %d", got, n)
	}
	// How many flights the burst split into is timing-dependent (under
	// -race arrivals can stagger past each other's deadlines), but every
	// flight that started must be abandoned and accounted exactly once.
	// The abandonment lands asynchronously on the flight runner after the
	// last participant departs; poll for it.
	leaders := s2.Metric("singleflight_leader")
	if leaders < 1 || leaders > n {
		t.Errorf("singleflight_leader = %d, want 1..%d", leaders, n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s2.Metric("pool_abandoned_queued")+s2.Metric("pool_abandoned_running") < leaders && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if q, r := s2.Metric("pool_abandoned_queued"), s2.Metric("pool_abandoned_running"); q+r != leaders {
		t.Errorf("pool_abandoned_queued=%d pool_abandoned_running=%d, want %d (one per abandoned flight)", q, r, leaders)
	}
}

// TestSingleflightLateLeaderServesLanded holds one request between its
// warm check and its flight while an identical request runs the cold
// pipeline and lands. The held request then leads a flight of its own,
// whose re-check of the warm rung serves the landed response: the
// pipeline runs once, singleflight_leader is 1, and the held request is
// counted and labelled as a warm hit.
func TestSingleflightLateLeaderServesLanded(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	code, id := uploadRaw(s, tnsBody(rand.New(rand.NewSource(3)), []int{200, 200}, 2000))
	if code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", code, id)
	}
	body := fmt.Sprintf(`{"kernel":%q,"inputs":{"A":%q,"B":%q},"bufferWords":%d}`,
		testKernel, id, id, denseSquareWords(16, 2))

	held, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	s.beforeFlight = func() {
		if calls.Add(1) == 1 {
			close(held)
			<-release
		}
	}
	late := make(chan *httptest.ResponseRecorder, 1)
	go func() { late <- serveRaw(s, "/v1/optimize", "application/json", body) }()
	<-held // the late request missed the warm rung and waits before its flight
	first := serveRaw(s, "/v1/optimize", "application/json", body)
	close(release)
	rec := <-late

	for name, r := range map[string]*httptest.ResponseRecorder{"first": first, "late": rec} {
		if r.Code != http.StatusOK {
			t.Fatalf("%s request: status %d: %s", name, r.Code, r.Body)
		}
	}
	if rec.Body.String() != first.Body.String() {
		t.Errorf("late request served\n%s\nthe first\n%s", rec.Body, first.Body)
	}
	if got := s.Metric("singleflight_leader"); got != 1 {
		t.Errorf("singleflight_leader = %d, want 1: the late request computed again", got)
	}
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Errorf("stats_collect_total = %d, want 1", got)
	}
	if got, state := s.Metric("optimize_cache_hits"), rec.Header().Get("X-D2T2-Cache"); got != 1 || state != "hit" {
		t.Errorf("late request: optimize_cache_hits = %d, X-D2T2-Cache %q; want 1 and hit", got, state)
	}
	if state := first.Header().Get("X-D2T2-Cache"); state != "miss" {
		t.Errorf("first request: X-D2T2-Cache %q, want miss", state)
	}
}
