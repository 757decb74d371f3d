package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// The measurement rung's tests: measured traffic is kept per
// (*d2t2.Plan).MeasureKey, so requests at different buffers that choose
// one config run one measurement, and every answer equals a fresh
// server's. The key's dependencies themselves — OverflowExtra, which no
// request sets, included — are pinned by the root package's
// TestMeasureKey.

const ijkKernel = "C(i,j) = A(i,k) * B(k,j) | order: i,j,k"

// measureTensor is the test tensor of seed s: a 200×200 matrix with
// about 1500 nonzeros.
func measureTensor(s int64) string {
	return tnsBody(rand.New(rand.NewSource(s)), []int{200, 200}, 1500)
}

// measureRequest renders an optimize request over operands a and b.
func measureRequest(kernel, a, b string, bufferWords int, target float64, measure bool) string {
	req := fmt.Sprintf(`{"kernel":%q,"inputs":{"A":%q,"B":%q},"bufferWords":%d,"measure":%t`, kernel, a, b, bufferWords, measure)
	if target > 0 {
		req += fmt.Sprintf(`,"overflow_target":%v`, target)
	}
	return req + "}"
}

// newMeasureServer starts an in-process server and uploads each tensor
// body, returning the server and the content addresses in order.
func newMeasureServer(t *testing.T, cfg Config, tensors ...string) (*Server, []string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ids := make([]string, len(tensors))
	for i, body := range tensors {
		code, id := uploadRaw(s, body)
		if code != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, code, id)
		}
		ids[i] = id
	}
	return s, ids
}

// optimizeOK serves one optimize request and returns its body.
func optimizeOK(t *testing.T, s *Server, body string) string {
	t.Helper()
	rec := serveRaw(s, "/v1/optimize", "application/json", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// freshAnswer is body's answer on a fresh server holding the tensors.
func freshAnswer(t *testing.T, body string, tensors ...string) string {
	t.Helper()
	s, _ := newMeasureServer(t, Config{Workers: 1}, tensors...)
	return optimizeOK(t, s, body)
}

// measuredMB decodes a response's measured traffic.
func measuredMB(t *testing.T, body string) float64 {
	t.Helper()
	var resp struct {
		MeasuredMB *float64 `json:"measuredMB"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.MeasuredMB == nil {
		t.Fatalf("no measured traffic (%v): %s", err, body)
	}
	return *resp.MeasuredMB
}

// sharedConfigBuffers returns the largest set of buffers in [dense(32),
// dense(64)) at which an unmeasured optimize over A=B=id chooses one
// config, failing when no two buffers share one.
func sharedConfigBuffers(t *testing.T, s *Server, kernel, id string, target float64, n int) []int {
	t.Helper()
	lo, hi := denseSquareWords(32, 2), denseSquareWords(64, 2)
	groups := map[string][]int{}
	for i := 0; i < n; i++ {
		bw := lo + i*(hi-lo)/n
		var resp struct {
			Config map[string]int `json:"config"`
		}
		json.Unmarshal([]byte(optimizeOK(t, s, measureRequest(kernel, id, id, bw, target, false))), &resp)
		cfg, _ := json.Marshal(resp.Config)
		groups[string(cfg)] = append(groups[string(cfg)], bw)
	}
	var best []int
	for _, g := range groups {
		if len(g) > len(best) || len(g) == len(best) && g[0] < best[0] {
			best = g
		}
	}
	if len(best) < 2 {
		t.Fatalf("no two of %d buffers choose one config: %v", n, groups)
	}
	return best
}

// rungCounts reads the measurement rung's counters.
func rungCounts(s *Server) (runs, hits int64) {
	return s.Metric("measure_runs"), s.Metric("measure_memo_hits")
}

// TestMeasureRungSharedConfig: two measured optimizes at different
// buffers that choose one config run one measurement, as single
// requests and as the two jobs of one /v1/batch, and each answer
// equals a fresh server's.
func TestMeasureRungSharedConfig(t *testing.T) {
	tns := measureTensor(11)
	s, ids := newMeasureServer(t, Config{Workers: 1}, tns)
	id := ids[0]
	buffers := sharedConfigBuffers(t, s, testKernel, id, 0, 12)[:2]
	runs, hits := rungCounts(s)
	var bodies, answers []string
	for _, bw := range buffers {
		body := measureRequest(testKernel, id, id, bw, 0, true)
		got := optimizeOK(t, s, body)
		want := freshAnswer(t, body, tns)
		if got != want {
			t.Errorf("buffer %d:\n%s\nwant (fresh server)\n%s", bw, got, want)
		}
		bodies, answers = append(bodies, body), append(answers, want)
	}
	if r, h := rungCounts(s); r-runs != 1 || h-hits != 1 {
		t.Errorf("buffers %v: %d measurements and %d memo hits, want 1 and 1", buffers, r-runs, h-hits)
	}
	if mb0, mb1 := measuredMB(t, answers[0]), measuredMB(t, answers[1]); mb0 != mb1 {
		t.Errorf("one config measured %v and %v", mb0, mb1)
	}

	b, _ := newMeasureServer(t, Config{Workers: 1}, tns)
	rec := serveRaw(b, "/v1/batch", "application/json", `{"jobs":[`+strings.Join(bodies, ",")+`]}`)
	var br batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); rec.Code != http.StatusOK || err != nil || len(br.Jobs) != 2 {
		t.Fatalf("batch: status %d (%v): %s", rec.Code, err, rec.Body)
	}
	for i, j := range br.Jobs {
		if got := string(j.Response) + "\n"; got != answers[i] {
			t.Errorf("batch job %d:\n%s\nwant (fresh server)\n%s", i, got, answers[i])
		}
	}
	if r, h := rungCounts(b); r != 1 || h != 1 {
		t.Errorf("batch: %d measurements and %d memo hits, want 1 and 1", r, h)
	}
}

// TestMeasureRungKeyMisses: a different loop order, swapped operands, a
// delta's new version and an overbooked plan at another buffer each run
// their own measurement, and each answer equals a fresh server's.
func TestMeasureRungKeyMisses(t *testing.T) {
	x, y := measureTensor(12), measureTensor(13)
	s, ids := newMeasureServer(t, Config{Workers: 1}, x, y)
	bw := denseSquareWords(32, 2) + 97

	delta := `{"crds":[[0,1],[150,7]],"vals":[2,3]}`
	rec := serveRaw(s, "/v1/tensors/"+ids[0]+"/delta", "application/json", delta)
	var dr deltaResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("delta: status %d (%v): %s", rec.Code, err, rec.Body)
	}
	fresh, _ := newMeasureServer(t, Config{Workers: 1}, x)
	if rec := serveRaw(fresh, "/v1/tensors/"+ids[0]+"/delta", "application/json", delta); rec.Code != http.StatusOK {
		t.Fatalf("fresh delta: status %d: %s", rec.Code, rec.Body)
	}
	over := sharedConfigBuffers(t, s, testKernel, ids[0], 0.05, 12)

	for _, c := range []struct {
		name   string
		first  string
		second string
		answer func(body string) string
	}{
		{"loop order", measureRequest(testKernel, ids[0], ids[0], bw, 0, true), measureRequest(ijkKernel, ids[0], ids[0], bw, 0, true),
			func(body string) string { return freshAnswer(t, body, x) }},
		{"swapped operands", measureRequest(testKernel, ids[0], ids[1], bw, 0, true), measureRequest(testKernel, ids[1], ids[0], bw, 0, true),
			func(body string) string { return freshAnswer(t, body, x, y) }},
		{"delta version", measureRequest(ijkKernel, ids[0], ids[0], bw+1, 0, true), measureRequest(ijkKernel, dr.ID, dr.ID, bw+1, 0, true),
			func(body string) string { return optimizeOK(t, fresh, body) }},
		{"overbooked buffer", measureRequest(testKernel, ids[0], ids[0], over[0], 0.05, true), measureRequest(testKernel, ids[0], ids[0], over[1], 0.05, true),
			func(body string) string { return freshAnswer(t, body, x) }},
	} {
		var runs, hits int64
		for _, body := range []string{c.first, c.second} {
			// The first request may hit an earlier case's entry.
			runs, hits = rungCounts(s)
			if got, want := optimizeOK(t, s, body), c.answer(body); got != want {
				t.Errorf("%s: %s:\n%s\nwant (fresh server)\n%s", c.name, body, got, want)
			}
		}
		if r, h := rungCounts(s); r-runs != 1 || h-hits != 0 {
			t.Errorf("%s: the second request ran %d measurements and hit %d times, want 1 and 0", c.name, r-runs, h-hits)
		}
	}
}

// TestMeasureRungTinyBudget: under a memory budget far below what the
// requests leave resident (a disk layer reloads the evicted tensor),
// MemBytes stays within it after every measured request, measurement
// entries included; evicted measurements run again, and every answer
// equals a fresh server's.
func TestMeasureRungTinyBudget(t *testing.T) {
	tns := measureTensor(14)
	const budget = 160 << 10
	tiny, ids := newMeasureServer(t, Config{Workers: 1, MemCacheBytes: budget, CacheDir: t.TempDir()}, tns)
	roomy, _ := newMeasureServer(t, Config{Workers: 1}, tns)
	id := ids[0]
	lo, hi := denseSquareWords(32, 2), denseSquareWords(64, 2)
	want := map[string]string{}
	// The second pass moves every buffer by one word, so its requests
	// miss the response cache and ask the rung again.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 8; i++ {
			for _, kernel := range []string{testKernel, ijkKernel} {
				body := measureRequest(kernel, id, id, lo+i*(hi-lo)/8+pass, 0, true)
				if _, ok := want[body]; !ok {
					want[body] = freshAnswer(t, body, tns)
				}
				for _, s := range []*Server{tiny, roomy} {
					if got := optimizeOK(t, s, body); got != want[body] {
						t.Errorf("pass %d: %s:\n%s\nwant (fresh server)\n%s", pass, body, got, want[body])
					}
				}
				if m := tiny.store.MemBytes(); m > budget {
					t.Fatalf("pass %d: MemBytes %d above the %d-byte budget", pass, m, budget)
				}
			}
		}
	}
	tinyRuns, _ := rungCounts(tiny)
	roomyRuns, roomyHits := rungCounts(roomy)
	if roomyHits == 0 || tinyRuns <= roomyRuns {
		t.Errorf("%d measurements under the tiny budget, %d (and %d memo hits) under the default one: nothing was evicted and run again",
			tinyRuns, roomyRuns, roomyHits)
	}
}

// TestMeasureRungConcurrent: 12 concurrent measured optimizes at
// buffers that choose one config — one measurement key — each answer
// their fresh server's bytes with one measured traffic.
func TestMeasureRungConcurrent(t *testing.T) {
	tns := measureTensor(15)
	for _, workers := range []int{1, 4} {
		s, ids := newMeasureServer(t, Config{Workers: workers}, tns)
		id := ids[0]
		buffers := sharedConfigBuffers(t, s, testKernel, id, 0, 24)
		bodies := make([]string, 12)
		want := map[string]string{}
		for i := range bodies {
			bodies[i] = measureRequest(testKernel, id, id, buffers[i%len(buffers)], 0, true)
			if _, ok := want[bodies[i]]; !ok {
				want[bodies[i]] = freshAnswer(t, bodies[i], tns)
			}
		}
		runs, hits := rungCounts(s)
		got := make([]string, len(bodies))
		var wg sync.WaitGroup
		for i, body := range bodies {
			wg.Add(1)
			go func(i int, body string) {
				defer wg.Done()
				rec := serveRaw(s, "/v1/optimize", "application/json", body)
				if rec.Code != http.StatusOK {
					t.Errorf("workers=%d %s: status %d: %s", workers, body, rec.Code, rec.Body)
				}
				got[i] = rec.Body.String()
			}(i, body)
		}
		wg.Wait()
		mbs := map[float64]bool{}
		for i, body := range bodies {
			if got[i] != want[body] {
				t.Errorf("workers=%d %s:\n%s\nwant (fresh server)\n%s", workers, body, got[i], want[body])
				continue
			}
			mbs[measuredMB(t, got[i])] = true
		}
		if len(mbs) != 1 {
			t.Errorf("workers=%d: one key measured %v", workers, mbs)
		}
		// Identical bodies coalesce or hit the response cache before the
		// rung, and concurrent misses on one key may each measure.
		if r, h := rungCounts(s); r-runs < 1 || r-runs+h-hits > int64(len(bodies)) {
			t.Errorf("workers=%d: %d measurements and %d memo hits for %d requests", workers, r-runs, h-hits, len(bodies))
		}
	}
}
