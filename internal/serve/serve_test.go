package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"d2t2"
	"d2t2/internal/cluster"
	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/mmio"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/snapshot"
	"d2t2/internal/tensor"
)

const testKernel = "C(i,j) = A(i,k) * B(k,j) | order: i,k,j"

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func ingestGen(t testing.TB, url, label string, scale int) string {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/tensors", map[string]any{
		"gen": map[string]any{"label": label, "scale": scale},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	var ir struct {
		ID  string `json:"id"`
		NNZ int    `json:"nnz"`
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	if !strings.HasPrefix(ir.ID, "sha256:") || ir.NNZ == 0 {
		t.Fatalf("implausible ingest response: %s", body)
	}
	return ir.ID
}

// TestEndToEnd drives the full service flow: ingest, cold optimize, warm
// optimize, predict, stats. The warm optimize must be byte-identical to
// the cold one and must skip tiling and collection entirely, which the
// expvar counters prove: optimize_cache_hits rises by one while
// stats_collect_total stays flat.
func TestEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", 1<<20)

	// Re-ingesting identical content is a cache hit on the same address.
	resp, body := postJSON(t, ts.URL+"/v1/tensors", map[string]any{
		"gen": map[string]any{"label": "C", "scale": 1 << 20},
	})
	var again struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &again); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("re-ingest: status %d err %v: %s", resp.StatusCode, err, body)
	}
	if again.ID != id || !again.Cached {
		t.Fatalf("re-ingest not content-addressed: %s", body)
	}

	optReq := map[string]any{
		"kernel": testKernel,
		"inputs": map[string]string{"A": id, "B": id},
		"tile":   32,
	}
	cold, coldBody := postJSON(t, ts.URL+"/v1/optimize", optReq)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold optimize: status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-D2T2-Cache"); got != "miss" {
		t.Fatalf("cold optimize cache header %q, want miss", got)
	}
	if cold.Header.Get("X-D2T2-Version") == "" {
		t.Fatalf("version header missing")
	}
	collects := s.Metric("stats_collect_total")
	if collects == 0 {
		t.Fatalf("cold optimize performed no collections")
	}
	hits := s.Metric("optimize_cache_hits")

	warm, warmBody := postJSON(t, ts.URL+"/v1/optimize", optReq)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm optimize: status %d: %s", warm.StatusCode, warmBody)
	}
	if got := warm.Header.Get("X-D2T2-Cache"); got != "hit" {
		t.Fatalf("warm optimize cache header %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm response differs from cold:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if got := s.Metric("optimize_cache_hits"); got != hits+1 {
		t.Fatalf("optimize_cache_hits = %d, want %d", got, hits+1)
	}
	if got := s.Metric("stats_collect_total"); got != collects {
		t.Fatalf("warm optimize re-collected statistics: %d -> %d", collects, got)
	}

	var plan struct {
		Config      map[string]int `json:"config"`
		PredictedMB float64        `json:"predictedMB"`
	}
	if err := json.Unmarshal(coldBody, &plan); err != nil {
		t.Fatalf("optimize response: %v", err)
	}
	if len(plan.Config) != 3 || plan.PredictedMB <= 0 {
		t.Fatalf("implausible plan: %s", coldBody)
	}

	// A different query against the same tensors reuses the statistics
	// artifacts even though its response is not cached yet.
	resp, body = postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"kernel":    testKernel,
		"inputs":    map[string]string{"A": id, "B": id},
		"config":    map[string]int{"i": 16, "k": 16, "j": 16},
		"statsTile": 32,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, body)
	}
	if got := s.Metric("stats_collect_total"); got != collects {
		t.Fatalf("predict re-collected statistics at the optimizer's tiling: %d -> %d", collects, got)
	}
	var pr struct {
		PredictedMB float64 `json:"predictedMB"`
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.PredictedMB <= 0 {
		t.Fatalf("implausible prediction: %s", body)
	}

	// Warm predict is served from the response cache.
	resp, body2 := postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"kernel":    testKernel,
		"inputs":    map[string]string{"A": id, "B": id},
		"config":    map[string]int{"i": 16, "k": 16, "j": 16},
		"statsTile": 32,
	})
	if resp.Header.Get("X-D2T2-Cache") != "hit" || !bytes.Equal(body, body2) {
		t.Fatalf("warm predict not cached byte-identically")
	}

	// Stats summary endpoint.
	sr, err := http.Get(ts.URL + "/v1/tensors/" + id + "/stats?tile=32")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	body, _ = io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", sr.StatusCode, body)
	}
	var sum struct {
		SizeTile float64 `json:"sizeTile"`
		NumTiles int     `json:"numTiles"`
	}
	if err := json.Unmarshal(body, &sum); err != nil || sum.SizeTile <= 0 || sum.NumTiles <= 0 {
		t.Fatalf("implausible stats summary: %s", body)
	}
}

// TestWarmAcrossRestart proves persistence: a second server over the same
// cache directory serves the optimize response and tensor artifact from
// disk without re-ingesting or re-collecting.
func TestWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	id := ingestGen(t, ts1.URL, "C", 1<<20)
	optReq := map[string]any{
		"kernel": testKernel,
		"inputs": map[string]string{"A": id, "B": id},
		"tile":   32,
	}
	cold, coldBody := postJSON(t, ts1.URL+"/v1/optimize", optReq)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold optimize: %d", cold.StatusCode)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	warm, warmBody := postJSON(t, ts2.URL+"/v1/optimize", optReq)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("restarted optimize: status %d: %s", warm.StatusCode, warmBody)
	}
	if warm.Header.Get("X-D2T2-Cache") != "hit" || !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("restart lost the response cache")
	}
	if got := s2.Metric("stats_collect_total"); got != 0 {
		t.Fatalf("restarted server re-collected: %d", got)
	}

	// The tensor artifact also survives: a stats query for the ingested
	// address works without a fresh ingest.
	sr, err := http.Get(ts2.URL + "/v1/tensors/" + id + "/stats?tile=32")
	if err != nil || sr.StatusCode != http.StatusOK {
		t.Fatalf("stats after restart: %v %d", err, sr.StatusCode)
	}
	sr.Body.Close()
}

func TestRawUploadIngest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mtx := "%%MatrixMarket matrix coordinate real general\n4 4 3\n1 1 1.0\n2 3 2.0\n4 4 3.0\n"
	resp, err := http.Post(ts.URL+"/v1/tensors", "text/plain", strings.NewReader(mtx))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var ir struct {
		ID   string `json:"id"`
		Dims []int  `json:"dims"`
		NNZ  int    `json:"nnz"`
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("response: %v", err)
	}
	if ir.NNZ != 3 || len(ir.Dims) != 2 || ir.Dims[0] != 4 {
		t.Fatalf("wrong parse: %s", body)
	}

	// The same matrix as a .tns upload lands on a different address only
	// because TNS infers tight dims; the parse itself must succeed.
	tns := "1 1 1.0\n2 3 2.0\n4 4 3.0\n"
	resp, err = http.Post(ts.URL+"/v1/tensors", "text/plain", strings.NewReader(tns))
	if err != nil {
		t.Fatalf("tns upload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tns upload: status %d", resp.StatusCode)
	}
}

// TestIngestRejectsOrderAboveTilingLimit: the one limit on an upload's
// order is that its coordinate grid has 64-bit keys. A 4-way tensor of
// 2^16 per axis has exactly 2^64 cells, so ingest answers 400 naming
// the bound and counts the failure instead of registering a tensor
// every optimize would refuse; one cell fewer per axis is accepted.
func TestIngestRejectsOrderAboveTilingLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tns := "1 1 1 1 1.0\n65536 65536 65536 65536 2.0\n"
	resp, err := http.Post(ts.URL+"/v1/tensors", "text/plain", strings.NewReader(tns))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2^64-cell upload: status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "2^64") {
		t.Fatalf("2^64-cell upload: error does not name the bound: %s", body)
	}
	if got := s.Metric("ingest_errors"); got != 1 {
		t.Fatalf("ingest_errors = %d, want 1", got)
	}
	if got := s.Metric("tensors_registered"); got != 0 {
		t.Fatalf("tensors_registered = %d, want 0", got)
	}
	below := "1 1 1 1 1.0\n65535 65535 65535 65535 2.0\n"
	resp, err = http.Post(ts.URL+"/v1/tensors", "text/plain", strings.NewReader(below))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("(2^16-1)^4-cell upload: status %d: %s", resp.StatusCode, body)
	}
}

// TestOrder4OptimizeAndMeasure: d2t2d ingests a 4-way .tns and answers
// optimize with measure for a TTM-style kernel over it, and the measured
// traffic is the compiled engine's, equal to the generic walker's on the
// returned configuration.
func TestOrder4OptimizeAndMeasure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r := rand.New(rand.NewSource(4))
	var c, b strings.Builder
	for p := 0; p < 400; p++ {
		fmt.Fprintf(&c, "%d %d %d %d %d\n", 1+r.Intn(24), 1+r.Intn(20), 1+r.Intn(12), 1+r.Intn(16), 1+r.Intn(9))
	}
	for p := 0; p < 60; p++ {
		fmt.Fprintf(&b, "%d %d %d\n", 1+r.Intn(10), 1+r.Intn(16), 1+r.Intn(9))
	}
	upload := func(text string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/tensors", "text/plain", strings.NewReader(text))
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
		}
		var ir struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		return ir.ID
	}
	const kernel = "X(i,j,k,m) = C(i,j,k,l) * B(m,l) | order: i,j,k,l,m"
	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
		"kernel":      kernel,
		"inputs":      map[string]string{"C": upload(c.String()), "B": upload(b.String())},
		"bufferWords": 600,
		"measure":     true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", resp.StatusCode, body)
	}
	var or optimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.MeasuredMB == nil {
		t.Fatalf("optimize with measure returned no measuredMB: %s", body)
	}

	inputs := map[string]*tensor.COO{}
	for name, text := range map[string]string{"C": c.String(), "B": b.String()} {
		x, err := mmio.ReadAny(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		x.Dedup()
		inputs[name] = x
	}
	e := einsum.MustParse(kernel)
	tiled, err := optimizer.TileAllCtx(context.Background(), e, inputs, model.Config(or.Config), 0)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := exec.MeasureCtx(context.Background(), e, tiled, nil)
	if err != nil {
		t.Fatal(err)
	}
	walker, err := exec.MeasureCtx(context.Background(), e, tiled, &exec.Options{ForceGeneric: true})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.Specialized {
		t.Fatal("order-4 TTM did not run on the compiled engine")
	}
	if !reflect.DeepEqual(engine.Traffic, walker.Traffic) {
		t.Fatalf("engine traffic %+v != walker traffic %+v", engine.Traffic, walker.Traffic)
	}
	if got := engine.Traffic.TotalMB(); got != *or.MeasuredMB {
		t.Fatalf("measuredMB %v, engine recount %v", *or.MeasuredMB, got)
	}
}

// TestDuplicateUploadNotPinned: registering content the server already
// holds keeps the first tensor, and the duplicate upload's tensor becomes
// garbage — the content-address memo must not keep it reachable.
func TestDuplicateUploadNotPinned(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const tns = "1 1 2.0\n3 2 1.0\n2 4 5.0\n"
	upload := func() *d2t2.Tensor {
		x, err := d2t2.FromStream(strings.NewReader(tns))
		if err != nil {
			t.Fatal(err)
		}
		x.Normalize()
		return x
	}
	first := upload()
	id, kept, _, err := s.registerTensor(context.Background(), first)
	if err != nil || kept != first {
		t.Fatalf("first registration: %v", err)
	}
	collected := make(chan struct{})
	func() {
		dup := upload()
		dupID, got, cached, err := s.registerTensor(context.Background(), dup)
		if err != nil || dupID != id || got != first || !cached {
			t.Fatalf("duplicate registration: id %s, cached %v, kept first %v, err %v", dupID, cached, got == first, err)
		}
		runtime.SetFinalizer(dup, func(*d2t2.Tensor) { close(collected) })
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(first)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("the duplicate upload's tensor is still reachable after registration")
}

func TestErrorPaths(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A resolvable request, so the strict-decoding rows below fail on
	// their body alone: a lenient decoder would answer it 200.
	id := ingestGen(t, ts.URL, "C", 1<<20)
	good := `{"kernel":"` + testKernel + `","inputs":{"A":"` + id + `","B":"` + id + `"}`
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"bad json", "/v1/optimize", "{", http.StatusBadRequest},
		{"bad kernel", "/v1/optimize", `{"kernel":"nonsense","inputs":{}}`, http.StatusBadRequest},
		{"unknown tensor", "/v1/optimize",
			`{"kernel":"C(i,j) = A(i,k) * B(k,j) | order: i,k,j","inputs":{"A":"sha256:` + strings.Repeat("0", 64) + `","B":"sha256:` + strings.Repeat("0", 64) + `"}}`,
			http.StatusNotFound},
		{"missing input", "/v1/optimize",
			`{"kernel":"C(i,j) = A(i,k) * B(k,j) | order: i,k,j","inputs":{}}`,
			http.StatusNotFound},
		{"bad gen label", "/v1/tensors", `{"gen":{"label":"no-such-label","scale":1}}`, http.StatusBadRequest},
		{"no gen spec", "/v1/tensors", `{}`, http.StatusBadRequest},
		// Request bodies decode strictly: a misspelled knob (the response
		// spelling of overflow_target) or trailing bytes are 400s, never
		// silently ignored.
		{"unknown field", "/v1/optimize", good + `,"overflowTarget":0.2}`, http.StatusBadRequest},
		{"trailing data", "/v1/optimize", good + `} trailing garbage`, http.StatusBadRequest},
		{"batch trailing data", "/v1/batch", `{"jobs":[` + good + `}]} trailing garbage`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
	if s.Metric("http_errors") == 0 {
		t.Errorf("http_errors counter never moved")
	}

	resp, err := http.Get(ts.URL + "/v1/tensors/not-an-address/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stats for bogus id: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndVars(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var hz struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || hz.Status != "ok" || hz.Version == "" {
		t.Fatalf("healthz: %s (err %v)", body, err)
	}
	if resp.Header.Get("X-D2T2-Version") != hz.Version {
		t.Fatalf("header/body version mismatch")
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars struct {
		D2t2d map[string]any `json:"d2t2d"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	for _, name := range []string{"ingest_total", "stats_collect_total", "optimize_cache_hits", "bytes_served", "measure_runs", "measure_memo_hits"} {
		if _, ok := vars.D2t2d[name]; !ok {
			t.Errorf("counter %q missing from /debug/vars", name)
		}
	}
}

// TestGracefulShutdownUnderLoad hammers the server with concurrent
// ingest and optimize requests while a graceful shutdown runs. Every
// response must be a clean success or a clean 503 — no hangs, no panics,
// and (under -race) no data races between handlers, the pool and
// Shutdown.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	cfg := Config{CacheDir: t.TempDir(), Workers: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := ingestGen(t, ts.URL, "C", 1<<20)
	optBody, _ := json.Marshal(map[string]any{
		"kernel": testKernel,
		"inputs": map[string]string{"A": id, "B": id},
		"tile":   32,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				if i%2 == 0 {
					resp, err = http.Post(ts.URL+"/v1/tensors", "application/json",
						strings.NewReader(fmt.Sprintf(`{"gen":{"label":"C","scale":%d}}`, 1<<20)))
				} else {
					resp, err = http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(optBody))
				}
				if err != nil {
					return // connection refused after listener closes is fine
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("request failed with status %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}

	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestShutdownWaitsForInboundPush: Shutdown drains an inbound replica
// push still sending its body, so the artifact lands whole or not at
// all. With a push stalled mid-body, Shutdown waits; once the body
// finishes, the push is answered 204, the store holds exactly the
// pushed bytes, and Shutdown returns nil within its context. A push
// whose body never finishes leaves Shutdown to return its context's
// error at the deadline, and the artifact absent.
func TestShutdownWaitsForInboundPush(t *testing.T) {
	for _, finish := range []bool{true, false} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		s, err := New(Config{CacheDir: t.TempDir(), Workers: 1, Peers: []string{"http://127.0.0.1:1"},
			SelfURL: "http://" + addr, ClusterSecret: "secret"})
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.ListenAndServe(addr) }()
		for {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			time.Sleep(5 * time.Millisecond)
		}

		payload, err := snapshot.EncodeBytes(&snapshot.Artifact{Response: []byte("{\"pushed\":true}\n")})
		if err != nil {
			t.Fatal(err)
		}
		key := snapshot.ResponseKey("optimize", []byte("shutdown push"))
		frame := cluster.EncodeFrame(key, payload)
		pr, pw := io.Pipe()
		req, err := http.NewRequest(http.MethodPut, "http://"+addr+"/internal/v1/artifact/"+key, pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.SecretHeader, "secret")
		req.ContentLength = int64(len(frame))
		status := make(chan int, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		if _, err := pw.Write(frame[:len(frame)/2]); err != nil {
			t.Fatal(err)
		}
		for s.Metric("internal_requests_total") == 0 {
			time.Sleep(time.Millisecond)
		}

		wait := 10 * time.Second
		if !finish {
			wait = 200 * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		done := make(chan error, 1)
		go func() { done <- s.Shutdown(ctx) }()
		for !s.draining.Load() {
			time.Sleep(time.Millisecond)
		}
		if finish {
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned %v while a push was still sending its body", err)
			case <-time.After(100 * time.Millisecond):
			}
			pw.Write(frame[len(frame)/2:])
			pw.Close()
			if code := <-status; code != http.StatusNoContent {
				t.Fatalf("the drained push was answered %d, want 204", code)
			}
			if err := <-done; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if b, _, _ := s.store.Get(key); !bytes.Equal(b, payload) {
				t.Fatalf("the store holds %d bytes for the pushed %d-byte artifact", len(b), len(payload))
			}
		} else {
			if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Shutdown with a push that never finishes returned %v, want the context's deadline", err)
			}
			pw.CloseWithError(errors.New("pusher gave up"))
			if code := <-status; code == http.StatusNoContent {
				t.Fatal("a push cut mid-body was answered 204")
			}
			if b, _, _ := s.store.Get(key); b != nil {
				t.Fatalf("a push cut mid-body left %d bytes in the store", len(b))
			}
		}
		cancel()
		if err := <-served; err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
	}
}

// BenchmarkServeOptimizeCached measures the warm /v1/optimize path: a
// response-cache hit served straight from the artifact store.
func BenchmarkServeOptimizeCached(b *testing.B) {
	s, ts := newTestServer(b, Config{})
	id := ingestGen(b, ts.URL, "C", 1<<20)
	optBody, _ := json.Marshal(map[string]any{
		"kernel": testKernel,
		"inputs": map[string]string{"A": id, "B": id},
		"tile":   32,
	})
	h := s.Handler()
	warm := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(optBody))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := warm(); code != http.StatusOK { // cold fill
		b.Fatalf("cold optimize: status %d", code)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if code := warm(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}
