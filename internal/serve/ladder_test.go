package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"d2t2/internal/raceflag"
)

// rungUploadLimit clamps the rung servers' JSON body limit, so the
// oversized seeds stay small.
const rungUploadLimit = 4096

// newRungServer starts an in-process server with a small body limit and
// registers rungMTX on it, returning the server and the tensor's
// content address (the same on every server).
func newRungServer(t testing.TB) (*Server, string) {
	t.Helper()
	s, err := New(Config{Workers: 1, MaxUploadBytes: rungUploadLimit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	rec := serveRaw(s, "/v1/tensors", "text/plain", rungMTX)
	var ir struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("upload: status %d (%v): %s", rec.Code, err, rec.Body)
	}
	return s, ir.ID
}

// rungMTX is a small 32×32 matrix with a few nonzeros per row.
var rungMTX = func() string {
	var b strings.Builder
	b.WriteString("%%MatrixMarket matrix coordinate real general\n32 32 96\n")
	for i := 0; i < 32; i++ {
		for _, j := range []int{i, (i*7 + 3) % 32, (i*i + 5) % 32} {
			fmt.Fprintf(&b, "%d %d %d.5\n", i+1, j+1, i%5+1)
		}
	}
	return b.String()
}()

// serveRaw sends one request through s's handler in process.
func serveRaw(s *Server, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// rungBodies are request bodies against the tensor id: conservative,
// overbooked, calibrated, measured and huge-buffer optimizes, plain and
// calibrated predicts, and bodies strict decoding or the size limit
// must reject.
func rungBodies(id string) []struct {
	path, body string
} {
	inputs := `"inputs":{"A":"` + id + `","B":"` + id + `"}`
	good := `{"kernel":"` + testKernel + `",` + inputs
	return []struct{ path, body string }{
		{"/v1/optimize", good + `,"tile":8}`},
		{"/v1/optimize", good + `,"tile":8,"overflow_target":0.05}`},
		{"/v1/optimize", good + `,"tile":8,"overflow_target":0.05,"calibrate":true}`},
		{"/v1/optimize", good + `,"bufferWords":1187,"measure":true}`},
		{"/v1/optimize", good + `,"bufferWords":9223372036854775807}`},
		{"/v1/optimize", good + `,"overflowTarget":0.2}`},
		{"/v1/optimize", good + `} trailing garbage`},
		{"/v1/optimize", good + `}` + strings.Repeat(" ", rungUploadLimit)},
		{"/v1/optimize", good + `,"tile":"` + strings.Repeat("8", rungUploadLimit) + `"}`},
		{"/v1/predict", good + `,"config":{"i":8,"k":8,"j":8},"statsTile":8}`},
		{"/v1/predict", good + `,"config":{"i":8,"k":8,"j":8},"calibrate":true}`},
		{"/v1/predict", good + `,"config":{},"overflow_target":0.5}`},
	}
}

// TestRawRungCounters replays a fixed mix through one server and pins
// each request's status, cache state and counter deltas: a raw hit
// counts exactly what a canonical warm hit counted (overbooked requests
// included), a calibrated repeat re-runs and advances its bias, a body
// that fails to decode never enters the rung, and a raw hit whose
// artifact is gone falls through to the full path without counting
// anything twice.
func TestRawRungCounters(t *testing.T) {
	s, id := newRungServer(t)
	bodies := rungBodies(id)
	plain, over, calib := bodies[0], bodies[1], bodies[2]
	unknown, trailing, oversized := bodies[5], bodies[6], bodies[8]
	predict := bodies[9]
	counters := []string{
		"optimize_total", "optimize_cache_hits", "optimize_overbooked",
		"predict_total", "predict_cache_hits", "calibration_runs", "artifact_misses",
	}
	type delta map[string]int64
	steps := []struct {
		name   string
		req    struct{ path, body string }
		status int
		cache  string
		want   delta
		before func()
	}{
		// A cold request misses its response; the first one also misses
		// the statistics bundle every later request shares.
		{name: "plain cold", req: plain, status: 200, cache: "miss",
			want: delta{"optimize_total": 1, "artifact_misses": 2}},
		{name: "plain raw hit", req: plain, status: 200, cache: "hit",
			want: delta{"optimize_total": 1, "optimize_cache_hits": 1}},
		{name: "overbooked cold", req: over, status: 200, cache: "miss",
			want: delta{"optimize_total": 1, "optimize_overbooked": 1, "artifact_misses": 1}},
		{name: "overbooked raw hit", req: over, status: 200, cache: "hit",
			want: delta{"optimize_total": 1, "optimize_cache_hits": 1, "optimize_overbooked": 1}},
		{name: "overbooked artifact gone", req: over, status: 200, cache: "miss",
			want:   delta{"optimize_total": 1, "optimize_overbooked": 1, "artifact_misses": 1},
			before: func() { evict(s.store, s.responseKey(t, over.path, over.body)) }},
		{name: "overbooked refilled", req: over, status: 200, cache: "hit",
			want: delta{"optimize_total": 1, "optimize_cache_hits": 1, "optimize_overbooked": 1}},
		{name: "calibrated", req: calib, status: 200, cache: "miss",
			want: delta{"optimize_total": 1, "optimize_overbooked": 1, "calibration_runs": 1}},
		{name: "calibrated repeat", req: calib, status: 200, cache: "miss",
			want: delta{"optimize_total": 1, "optimize_overbooked": 1, "calibration_runs": 1}},
		{name: "calibrated again", req: calib, status: 200, cache: "miss",
			want: delta{"optimize_total": 1, "optimize_overbooked": 1, "calibration_runs": 1}},
		{name: "predict cold", req: predict, status: 200, cache: "miss",
			want: delta{"predict_total": 1, "artifact_misses": 1}},
		{name: "predict raw hit", req: predict, status: 200, cache: "hit",
			want: delta{"predict_total": 1, "predict_cache_hits": 1}},
		{name: "unknown field", req: unknown, status: 400, want: delta{"optimize_total": 1}},
		{name: "unknown field repeat", req: unknown, status: 400, want: delta{"optimize_total": 1}},
		{name: "trailing garbage", req: trailing, status: 400, want: delta{"optimize_total": 1}},
		{name: "trailing garbage repeat", req: trailing, status: 400, want: delta{"optimize_total": 1}},
		{name: "oversized", req: oversized, status: 400, want: delta{"optimize_total": 1}},
		{name: "oversized repeat", req: oversized, status: 400, want: delta{"optimize_total": 1}},
	}
	var biases []float64
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		before := make(map[string]int64, len(counters))
		for _, c := range counters {
			before[c] = s.Metric(c)
		}
		rec := serveRaw(s, st.req.path, "application/json", st.req.body)
		if rec.Code != st.status {
			t.Fatalf("%s: status %d, want %d: %s", st.name, rec.Code, st.status, rec.Body)
		}
		if got := rec.Header().Get("X-D2T2-Cache"); got != st.cache {
			t.Errorf("%s: X-D2T2-Cache %q, want %q", st.name, got, st.cache)
		}
		for _, c := range counters {
			if got := s.Metric(c) - before[c]; got != st.want[c] {
				t.Errorf("%s: %s moved by %d, want %d", st.name, c, got, st.want[c])
			}
		}
		if st.req == calib {
			var cr struct {
				Risk *riskBody `json:"risk"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil || cr.Risk == nil || cr.Risk.CalibrationBias == nil {
				t.Fatalf("%s: no calibration bias (%v): %s", st.name, err, rec.Body)
			}
			biases = append(biases, *cr.Risk.CalibrationBias)
		}
	}
	for i := 1; i < len(biases); i++ {
		if biases[i] == biases[i-1] {
			t.Errorf("calibration bias did not advance on repeat %d: %v", i, biases)
		}
	}
	if got := s.Metric("http_errors"); got != 6 {
		t.Errorf("http_errors = %d, want 6", got)
	}
}

// TestRawRungConcurrent hammers one server's rung from several
// goroutines at once — raw hits on filled bodies and fills of new ones —
// and requires every answer to match the sequential one (run it under
// -race).
func TestRawRungConcurrent(t *testing.T) {
	s, id := newRungServer(t)
	inputs := `"inputs":{"A":"` + id + `","B":"` + id + `"}`
	var bodies []string
	for tile := 2; tile <= 16; tile++ {
		bodies = append(bodies, fmt.Sprintf(`{"kernel":%q,%s,"tile":%d}`, testKernel, inputs, tile))
	}
	want := make(map[string]string)
	for _, b := range bodies[:len(bodies)/2] {
		want[b] = serveRaw(s, "/v1/optimize", "application/json", b).Body.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range bodies {
				b := bodies[(i+g)%len(bodies)]
				rec := serveRaw(s, "/v1/optimize", "application/json", b)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
				if w, ok := want[b]; ok && rec.Body.String() != w {
					t.Errorf("body for %s differs from the sequential answer", b)
				}
			}
		}(g)
	}
	wg.Wait()
}

// responseKey canonicalizes one request body the way its route does.
func (s *Server) responseKey(t *testing.T, path, body string) string {
	t.Helper()
	var (
		j   *keyedJob
		err error
	)
	if path == "/v1/predict" {
		var req predictRequest
		if err = json.Unmarshal([]byte(body), &req); err == nil {
			j, err = s.predictJob(req)
		}
	} else {
		var req optimizeRequest
		if err = json.Unmarshal([]byte(body), &req); err == nil {
			j, err = s.optimizeJob(req)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return j.key
}

// evict drops key from a memory-only store, as its LRU would.
func evict(st *Store, key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.idx[key]; ok {
		st.remove(el)
	}
}

// TestRawKeyIsNoTensor: the raw rung's store key for a served request
// body, sent back as a tensor ID, names no tensor on any route that
// resolves one — 404, or a failed job inside a batch — and the server
// keeps serving.
func TestRawKeyIsNoTensor(t *testing.T) {
	s, id := newRungServer(t)
	body := `{"kernel":"` + testKernel + `","inputs":{"A":"` + id + `","B":"` + id + `"},"tile":8}`
	if rec := serveRaw(s, "/v1/optimize", "application/json", body); rec.Code != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", rec.Code, rec.Body)
	}
	raw := "optimize\n" + body
	if v, _ := s.store.Value(raw); v == nil {
		t.Fatal("the served body left no raw-rung entry")
	}
	job, _ := json.Marshal(map[string]any{"kernel": testKernel, "inputs": map[string]string{"A": raw, "B": raw}})
	if rec := serveRaw(s, "/v1/optimize", "application/json", string(job)); rec.Code != http.StatusNotFound {
		t.Errorf("optimize naming a raw key: status %d: %s", rec.Code, rec.Body)
	}
	rec := serveRaw(s, "/v1/batch", "application/json", `{"jobs":[`+string(job)+`]}`)
	var br batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); rec.Code != http.StatusOK || err != nil || len(br.Jobs) != 1 ||
		!strings.Contains(br.Jobs[0].Error, "unknown tensor") {
		t.Errorf("batch naming a raw key: status %d: %s", rec.Code, rec.Body)
	}
	path := "/v1/tensors/" + url.PathEscape(raw)
	get := httptest.NewRecorder()
	s.Handler().ServeHTTP(get, httptest.NewRequest(http.MethodGet, path+"/stats?tile=8", nil))
	if get.Code != http.StatusNotFound {
		t.Errorf("stats of a raw key: status %d: %s", get.Code, get.Body)
	}
	if rec := serveRaw(s, path+"/delta", "application/json", `{"crds":[[0,1]],"vals":[1]}`); rec.Code != http.StatusNotFound {
		t.Errorf("delta on a raw key: status %d: %s", rec.Code, rec.Body)
	}
	if rec := serveRaw(s, "/v1/optimize", "application/json", body); rec.Code != http.StatusOK {
		t.Fatalf("optimize after the raw-key requests: status %d: %s", rec.Code, rec.Body)
	}
}

// TestHeaderNamesCanonical: the response header names are set by direct
// header-map assignment, which finds them under Header.Get only if they
// are in canonical form.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, name := range []string{headerVersion, headerKey, headerRisk, headerCache} {
		if c := http.CanonicalHeaderKey(name); c != name {
			t.Errorf("header name %q is not canonical (%q)", name, c)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps the
// headers and the status and drops the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestWarmHitAllocs pins what one warm memory hit allocates inside
// Server.Handler, for an optimize and a predict request whose bodies
// are resident (the second warm read on). The requests are built before
// counting and the writer is reused, so only the server's allocations
// count.
func TestWarmHitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	const ceiling = 8
	s, id := newRungServer(t)
	bodies := rungBodies(id)
	h := s.Handler()
	for _, b := range []struct{ path, body string }{bodies[0], bodies[9]} {
		for i := 0; i < 3; i++ { // the fill, then the warm read that keeps the body
			if rec := serveRaw(s, b.path, "application/json", b.body); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", b.path, rec.Code, rec.Body)
			}
		}
		const runs = 50
		reqs := make([]*http.Request, runs+1) // AllocsPerRun runs once more to warm up
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, b.path, strings.NewReader(b.body))
			reqs[i].Header.Set("Content-Type", "application/json")
		}
		w := &discardWriter{h: make(http.Header)}
		n := 0
		allocs := testing.AllocsPerRun(runs, func() {
			clear(w.h)
			h.ServeHTTP(w, reqs[n])
			n++
		})
		if w.code != http.StatusOK || w.h.Get("X-D2T2-Cache") != "hit" {
			t.Fatalf("%s: status %d, cache %q, want a 200 hit", b.path, w.code, w.h.Get("X-D2T2-Cache"))
		}
		t.Logf("%s: %v allocations per warm hit", b.path, allocs)
		if allocs > ceiling {
			t.Errorf("%s: %v allocations per warm hit, ceiling %d", b.path, allocs, ceiling)
		}
	}
}
