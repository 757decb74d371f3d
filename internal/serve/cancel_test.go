package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// cancelScale divides the paper-sized dataset down to a tensor whose
// cold optimize still takes hundreds of milliseconds — long enough that
// a ~100 ms request deadline reliably fires mid-pipeline, short enough
// to keep the suite fast.
const cancelScale = 4

func optimizeReq(id string) map[string]any {
	return map[string]any{
		"kernel": testKernel,
		"inputs": map[string]string{"A": id, "B": id},
		"tile":   32,
	}
}

// TestOptimizeDeadlineAbortsPipeline is the tentpole regression test:
// a request deadline that expires while its pipeline runs must produce
// a 504 in roughly the deadline — not the full pipeline time — with the
// compute observed to stop (the pool joins cleanly and the process
// goroutine count drains back to its baseline), and an aborted run must
// leave no artifact that perturbs a later identical request: re-running
// against the same cache directory yields bytes identical to a server
// that never timed out. The pipeline's job holds inside its flight
// until the deadline passes, so the deadline fires mid-job however fast
// the host runs the pipeline.
func TestOptimizeDeadlineAbortsPipeline(t *testing.T) {
	// Server A: generous deadline, private cache — the reference run.
	_, tsA := newTestServer(t, Config{})
	idA := ingestGen(t, tsA.URL, "C", cancelScale)
	coldStart := time.Now()
	respA, bodyA := postJSON(t, tsA.URL+"/v1/optimize", optimizeReq(idA))
	coldTime := time.Since(coldStart)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("reference optimize: status %d: %s", respA.StatusCode, bodyA)
	}

	// Server B0: generous deadline, shared cache dir — ingests the tensor
	// so the short-deadline server below can resolve it from the artifact
	// store (the "previous run of the daemon" path) without its ingest
	// racing the tight deadline.
	dir := t.TempDir()
	_, tsB0 := newTestServer(t, Config{CacheDir: dir})
	idB := ingestGen(t, tsB0.URL, "C", cancelScale)
	if idB != idA {
		t.Fatalf("content address differs across servers: %s vs %s", idB, idA)
	}

	// Server B: its job waits in the flight until the request's deadline
	// has cancelled it, then runs the pipeline on the dead context. A
	// server that ignored the deadline would hold the job for the full
	// cap and then answer 200.
	baseline := runtime.NumGoroutine()
	deadline := 100 * time.Millisecond
	sB, err := New(Config{CacheDir: dir, RequestTimeout: deadline})
	if err != nil {
		t.Fatal(err)
	}
	sB.inFlight = func(ctx context.Context) {
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
		}
	}
	tsB := httptest.NewServer(sB.Handler())
	defer tsB.Close()

	start := time.Now()
	respB, bodyB := postJSON(t, tsB.URL+"/v1/optimize", optimizeReq(idB))
	elapsed := time.Since(start)
	if respB.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline optimize: status %d (want 504): %s", respB.StatusCode, bodyB)
	}
	// "Roughly the deadline": well under the pipeline's own runtime. The
	// bound is adaptive so a slow CI machine scales it with the pipeline.
	bound := coldTime / 2
	if bound < time.Second {
		bound = time.Second
	}
	if elapsed >= bound {
		t.Errorf("504 took %v, want < %v (cold pipeline %v)", elapsed, bound, coldTime)
	}
	if got := sB.Metric("requests_timeout"); got != 1 {
		t.Errorf("requests_timeout = %d, want 1", got)
	}
	if got := sB.Metric("http_errors"); got != 1 {
		t.Errorf("http_errors = %d, want 1 (a deadline expiry is an error)", got)
	}
	// The abandonment is accounted by the flight runner once the last
	// participant departs — asynchronously to the 504 — so poll for it.
	abandonBy := time.Now().Add(10 * time.Second)
	for sB.Metric("pool_abandoned_queued")+sB.Metric("pool_abandoned_running") == 0 && time.Now().Before(abandonBy) {
		time.Sleep(10 * time.Millisecond)
	}
	if q, r := sB.Metric("pool_abandoned_queued"), sB.Metric("pool_abandoned_running"); q+r != 1 {
		t.Errorf("pool_abandoned_queued=%d pool_abandoned_running=%d, want exactly one abandonment", q, r)
	}
	if got := sB.Metric("requests_cancelled"); got != 0 {
		t.Errorf("requests_cancelled = %d, want 0 (deadline, not disconnect)", got)
	}

	// The abandoned pipeline must actually stop: shutdown joins every pool
	// worker, so it hangs if a worker is stuck in abandoned compute.
	tsB.Close()
	joined := make(chan error, 1)
	go func() { joined <- sB.Shutdown(context.Background()) }()
	select {
	case err := <-joined:
		if err != nil {
			t.Errorf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown hung: pool worker never finished the abandoned job")
	}
	drainBy := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(drainBy) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("goroutines did not drain after abort: %d, baseline %d", n, baseline)
	}

	// Server C: generous deadline over the aborted run's cache directory.
	// Whatever the aborted pipeline left behind (completed statistics
	// collections are legal; partial garbage is not) must not change the
	// answer: bytes must match the never-aborted reference.
	_, tsC := newTestServer(t, Config{CacheDir: dir})
	respC, bodyC := postJSON(t, tsC.URL+"/v1/optimize", optimizeReq(idB))
	if respC.StatusCode != http.StatusOK {
		t.Fatalf("post-abort optimize: status %d: %s", respC.StatusCode, bodyC)
	}
	if !bytes.Equal(bodyC, bodyA) {
		t.Errorf("post-abort optimize differs from reference:\n A: %s C: %s", bodyA, bodyC)
	}
}

// TestOptimizeClientDisconnect checks the disconnect/deadline split: a
// client that hangs up mid-compute increments requests_cancelled and is
// NOT counted as an http error or a timeout.
func TestOptimizeClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", cancelScale)
	errsBefore := s.Metric("http_errors")

	enc, err := json.Marshal(optimizeReq(id))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request completed before the disconnect: status %d", resp.StatusCode)
	}

	// The handler notices the disconnect at runCompute's return; poll
	// until its accounting lands.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metric("requests_cancelled") == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Metric("requests_cancelled"); got != 1 {
		t.Fatalf("requests_cancelled = %d, want 1", got)
	}
	if got := s.Metric("http_errors"); got != errsBefore {
		t.Errorf("http_errors moved %d -> %d on a client disconnect", errsBefore, got)
	}
	if got := s.Metric("requests_timeout"); got != 0 {
		t.Errorf("requests_timeout = %d, want 0 (disconnect, not deadline)", got)
	}
}

// trickleReader releases its payload in fixed chunks with a pause before
// each one, simulating a slow client upload.
type trickleReader struct {
	data  []byte
	chunk int
	pause time.Duration
}

func (r *trickleReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(r.pause)
	n := r.chunk
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestIngestSlowUpload is the -race regression for the ingest hand-off
// bug: the upload is buffered on the handler goroutine, so a body that
// trickles in past the request deadline yields a deterministic 504 with
// the job abandoned in the queue — no worker ever touches the request —
// and concurrent slow uploads leave the server consistent.
func TestIngestSlowUpload(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 250 * time.Millisecond})

	const uploads = 3
	var wg sync.WaitGroup
	statuses := make([]int, uploads)
	for i := 0; i < uploads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := &trickleReader{
				data:  bytes.Repeat([]byte("x"), 400),
				chunk: 50,
				pause: 60 * time.Millisecond, // 8 chunks ≈ 480 ms > deadline
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tensors", body)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("upload %d: %v", i, err)
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
			t.Errorf("slow upload %d: status %d, want 504", i, code)
		}
	}
	if got := s.Metric("pool_abandoned_queued"); got != uploads {
		t.Errorf("pool_abandoned_queued = %d, want %d (dead ctx must never hand off)", got, uploads)
	}
	if got := s.Metric("ingest_errors"); got != uploads {
		t.Errorf("ingest_errors = %d, want %d", got, uploads)
	}

	// A slow-but-in-time JSON upload still works: buffering preserves the
	// body bytes across the hand-off.
	spec := &trickleReader{
		data:  []byte(`{"gen": {"label": "C", "scale": 1048576}}`),
		chunk: 10,
		pause: 15 * time.Millisecond,
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tensors", spec)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-time slow upload: status %d: %s", resp.StatusCode, data)
	}
}

// TestWriteComputeError pins the full error-to-status mapping, including
// the 499 client-closed-request path a real disconnected client can
// never observe.
func TestWriteComputeError(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		err      error
		status   int
		counter  string
		httpErrs int64 // expected delta
	}{
		{context.Canceled, statusClientClosedRequest, "requests_cancelled", 0},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "requests_timeout", 1},
		{ErrShuttingDown, http.StatusServiceUnavailable, "", 1},
		{fmt.Errorf("bad kernel"), http.StatusUnprocessableEntity, "", 1},
	}
	for _, tc := range cases {
		before := s.Metric("http_errors")
		counterBefore := int64(0)
		if tc.counter != "" {
			counterBefore = s.Metric(tc.counter)
		}
		rec := httptest.NewRecorder()
		s.writeComputeError(rec, tc.err, http.StatusUnprocessableEntity)
		if rec.Code != tc.status {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := s.Metric("http_errors") - before; got != tc.httpErrs {
			t.Errorf("%v: http_errors delta %d, want %d", tc.err, got, tc.httpErrs)
		}
		if tc.counter != "" {
			if got := s.Metric(tc.counter) - counterBefore; got != 1 {
				t.Errorf("%v: %s delta %d, want 1", tc.err, tc.counter, got)
			}
		}
	}
}

// TestIsJSONContentType covers the media-type parsing the ingest route
// classifies uploads with.
func TestIsJSONContentType(t *testing.T) {
	cases := []struct {
		ct   string
		want bool
	}{
		{"application/json", true},
		{"Application/JSON", true},
		{"application/json; charset=utf-8", true},
		{"application/problem+json", true},
		{"application/vnd.d2t2.v1+json", true},
		{"", false},
		{"text/plain", false},
		{"application/octet-stream", false},
		{"application/jsonx", false},
		{"json", false},
		{";;", false},
	}
	for _, tc := range cases {
		if got := isJSONContentType(tc.ct); got != tc.want {
			t.Errorf("isJSONContentType(%q) = %v, want %v", tc.ct, got, tc.want)
		}
	}
}
