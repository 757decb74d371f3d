package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"d2t2/internal/snapshot"
)

// postBatch submits jobs to /v1/batch and decodes the per-job results.
func postBatch(t testing.TB, url string, jobs []map[string]any) (*http.Response, []batchJobResult) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/batch", map[string]any{"jobs": jobs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br struct {
		Jobs []batchJobResult `json:"jobs"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch response: %v: %s", err, body)
	}
	return resp, br.Jobs
}

// TestBatchSharedStats proves the batch scheduler's core claim: N jobs
// against one tensor run the tile-and-collect phase exactly once
// (stats_collect_total == 1 after three cold jobs), results land under
// the same response keys a single /v1/optimize would use, and a warm
// repeat serves every job from the response cache.
func TestBatchSharedStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", 1<<20)
	job := func(extra map[string]any) map[string]any {
		m := map[string]any{
			"kernel": testKernel,
			"inputs": map[string]string{"A": id, "B": id},
			"tile":   32,
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}
	jobs := []map[string]any{
		job(nil),
		job(map[string]any{"disableCorrs": true}),
		job(map[string]any{"skipResize": true}),
	}

	_, results := postBatch(t, ts.URL, jobs)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	keys := map[string]bool{}
	for i, r := range results {
		if r.Error != "" || len(r.Response) == 0 {
			t.Fatalf("job %d failed: %q", i, r.Error)
		}
		if r.Cache != "miss" {
			t.Fatalf("job %d cache %q, want miss", i, r.Cache)
		}
		keys[r.Key] = true
	}
	if len(keys) != 3 {
		t.Fatalf("expected 3 distinct response keys, got %d", len(keys))
	}
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Fatalf("3 batched jobs on one tensor ran %d collections, want exactly 1", got)
	}
	if got := s.Metric("batch_local_jobs"); got != 3 {
		t.Fatalf("batch_local_jobs = %d, want 3", got)
	}
	if got := s.Metric("batch_jobs_total"); got != 3 {
		t.Fatalf("batch_jobs_total = %d, want 3", got)
	}

	// Warm repeat: every job is a cache hit, byte-identical, and no
	// further collection runs.
	_, warm := postBatch(t, ts.URL, jobs)
	for i, r := range warm {
		if r.Cache != "hit" {
			t.Fatalf("warm job %d cache %q, want hit", i, r.Cache)
		}
		if !bytes.Equal(r.Response, results[i].Response) {
			t.Fatalf("warm job %d response differs from cold", i)
		}
	}
	if got := s.Metric("batch_cache_hits"); got != 3 {
		t.Fatalf("batch_cache_hits = %d, want 3", got)
	}
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Fatalf("warm batch re-collected: %d", got)
	}

	// The artifacts interoperate with the single-request endpoint: the
	// same job posted to /v1/optimize is a warm hit on the batch's key.
	resp, body := postJSON(t, ts.URL+"/v1/optimize", jobs[0])
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-D2T2-Cache") != "hit" {
		t.Fatalf("single optimize after batch: status %d cache %q", resp.StatusCode, resp.Header.Get("X-D2T2-Cache"))
	}
	if resp.Header.Get("X-D2T2-Key") != results[0].Key {
		t.Fatalf("single optimize key %q, batch key %q", resp.Header.Get("X-D2T2-Key"), results[0].Key)
	}
	// The persisted body carries a trailing newline that json.Marshal
	// compacts away when embedded as a RawMessage — compare trimmed.
	if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(results[0].Response)) {
		t.Fatalf("single optimize body differs from batch response")
	}

	// A further cold variant still needs no new collection — the frame's
	// statistics are shared across batches too.
	_, more := postBatch(t, ts.URL, []map[string]any{job(map[string]any{"analytic": true})})
	if more[0].Error != "" || more[0].Cache != "miss" {
		t.Fatalf("variant job: cache %q error %q", more[0].Cache, more[0].Error)
	}
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Fatalf("variant batch re-collected: %d", got)
	}
}

// TestBatchBundleOncePerFrame pins the batch's "one resolve per bundle"
// claim: a cold batch of 16 jobs over one tensor, in two statistics
// frames (base tiles 32 and 16) and two kernels, consults the artifact
// ladder once per response key (the warm rung) plus once per distinct
// statistics bundle — not once per job in each of the precollect and
// search phases. Every job's body equals a cold single /v1/optimize of
// the same job on a fresh server.
func TestBatchBundleOncePerFrame(t *testing.T) {
	const ijk = "C(i,j) = A(i,k) * B(j,k) | order: i,j,k"
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", 1<<20)
	var jobs []map[string]any
	for _, frame := range []struct {
		kernel string
		tile   int
	}{{testKernel, 32}, {ijk, 16}} {
		// Distinct buffers inside one Conservative band: distinct
		// responses, one base tile, hence one bundle per frame.
		for i := 0; i < 8; i++ {
			jobs = append(jobs, map[string]any{
				"kernel":      frame.kernel,
				"inputs":      map[string]string{"A": id, "B": id},
				"bufferWords": denseSquareWords(frame.tile, 2) + 97*i,
			})
		}
	}
	const bundles = 2

	lookups := func(s *Server) int64 {
		return s.Metric("artifact_mem_hits") + s.Metric("artifact_disk_hits") + s.Metric("artifact_misses")
	}
	before := lookups(s)
	_, results := postBatch(t, ts.URL, jobs)
	if got, want := lookups(s)-before, int64(len(jobs)+bundles); got != want {
		t.Fatalf("cold batch of %d jobs made %d artifact lookups, want %d (one per response key + one per bundle)",
			len(jobs), got, want)
	}
	if got := s.Metric("stats_collect_total"); got != bundles {
		t.Fatalf("stats_collect_total = %d, want %d", got, bundles)
	}

	s2, ts2 := newTestServer(t, Config{})
	if id2 := ingestGen(t, ts2.URL, "C", 1<<20); id2 != id {
		t.Fatalf("fresh server ingested %q, want %q", id2, id)
	}
	for i, r := range results {
		if r.Error != "" || r.Cache != "miss" {
			t.Fatalf("job %d: cache %q error %q", i, r.Cache, r.Error)
		}
		resp, body := postJSON(t, ts2.URL+"/v1/optimize", jobs[i])
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-D2T2-Cache") != "miss" {
			t.Fatalf("single optimize %d: status %d cache %q", i, resp.StatusCode, resp.Header.Get("X-D2T2-Cache"))
		}
		if resp.Header.Get("X-D2T2-Key") != r.Key {
			t.Fatalf("job %d: single key %q, batch key %q", i, resp.Header.Get("X-D2T2-Key"), r.Key)
		}
		if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(r.Response)) {
			t.Fatalf("job %d: batch body differs from a single optimize:\n%s\n%s", i, r.Response, body)
		}
	}
	if got := s2.Metric("stats_collect_total"); got != bundles {
		t.Fatalf("single optimizes ran %d collections, want %d", got, bundles)
	}
}

// TestBatchValidationAndPartialFailure covers the request surface: empty
// and oversized batches refuse outright, a bad job fails in its own
// result slot without sinking its batchmates, and duplicate jobs
// coalesce onto one computation.
func TestBatchValidationAndPartialFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", 1<<20)

	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", resp.StatusCode, body)
	}
	big := make([]map[string]any, maxBatchJobs+1)
	for i := range big {
		big[i] = map[string]any{"kernel": testKernel, "inputs": map[string]string{"A": id, "B": id}}
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": big})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d: %s", resp.StatusCode, body)
	}

	good := map[string]any{
		"kernel": testKernel,
		"inputs": map[string]string{"A": id, "B": id},
		"tile":   32,
	}
	_, results := postBatch(t, ts.URL, []map[string]any{
		{"kernel": "nonsense", "inputs": map[string]string{}},
		good,
		good, // duplicate of the previous job: same key, shared run
	})
	if results[0].Error == "" || len(results[0].Response) != 0 {
		t.Fatalf("bad kernel job did not fail in place: %+v", results[0])
	}
	if results[1].Error != "" || len(results[1].Response) == 0 {
		t.Fatalf("good job sunk by its batchmate: %q", results[1].Error)
	}
	if results[1].Key != results[2].Key || !bytes.Equal(results[1].Response, results[2].Response) {
		t.Fatalf("duplicate jobs did not share one result")
	}
	if got := s.Metric("batch_job_errors"); got != 1 {
		t.Fatalf("batch_job_errors = %d, want 1", got)
	}
}

const deltaBaseMTX = "%%MatrixMarket matrix coordinate real general\n" +
	"8 8 4\n1 1 1.0\n2 3 2.0\n5 5 1.5\n8 8 3.0\n"

const deltaConcatMTX = "%%MatrixMarket matrix coordinate real general\n" +
	"8 8 6\n1 1 1.0\n1 2 4.0\n2 3 2.0\n5 5 1.5\n7 1 5.0\n8 8 3.0\n"

func uploadMTX(t testing.TB, url, mtx string) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/tensors", "text/plain", strings.NewReader(mtx))
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
		t.Fatalf("upload response: %v", err)
	}
	return ir.ID
}

func getStats(t testing.TB, url, id string, tile int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/tensors/%s/stats?tile=%d", url, id, tile))
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestDeltaMergeMatchesScratch drives POST /v1/tensors/{id}/delta and
// proves the paper-level claim end to end: the delta lands on the same
// content address a from-scratch ingest of the concatenated tensor
// produces, its merged statistics are byte-identical to a fresh
// collection on that tensor (a second server re-collects from scratch
// for comparison), and the merge itself performs no re-collection —
// stats_collect_total stays flat while only the touched tiles are
// re-summarized.
func TestDeltaMergeMatchesScratch(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	baseID := uploadMTX(t, ts.URL, deltaBaseMTX)
	getStats(t, ts.URL, baseID, 4)
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Fatalf("baseline stats ran %d collections, want 1", got)
	}

	resp, body := postJSON(t, ts.URL+"/v1/tensors/"+baseID+"/delta", map[string]any{
		"crds": [][]int{{0, 1}, {6, 0}},
		"vals": []float64{4, 5},
		"tile": 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}
	var dr struct {
		ID           string `json:"id"`
		NNZ          int    `json:"nnz"`
		TouchedTiles int    `json:"touchedTiles"`
		TotalTiles   int    `json:"totalTiles"`
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("delta response: %v", err)
	}
	if dr.ID == baseID || dr.NNZ != 6 {
		t.Fatalf("implausible delta result: %s", body)
	}
	// 8x8 at tile 4: base entries live in tiles (0,0) and (1,1); the two
	// delta entries touch (0,0) and open (1,0) — 2 of 3 re-summarized.
	if dr.TouchedTiles != 2 || dr.TotalTiles != 3 {
		t.Fatalf("touched %d/%d tiles, want 2/3: %s", dr.TouchedTiles, dr.TotalTiles, body)
	}
	if got := s.Metric("delta_merges"); got != 1 {
		t.Fatalf("delta_merges = %d, want 1", got)
	}
	if got := s.Metric("stats_merge_total"); got != 1 {
		t.Fatalf("stats_merge_total = %d, want 1", got)
	}

	// The merged statistics are already warm: querying the combined
	// tensor's stats performs no collection.
	mergedStats := getStats(t, ts.URL, dr.ID, 4)
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Fatalf("stats after delta re-collected: %d collections", got)
	}

	// A pristine server ingesting the concatenated matrix from scratch
	// lands on the same content address and byte-identical statistics.
	s2, ts2 := newTestServer(t, Config{})
	concatID := uploadMTX(t, ts2.URL, deltaConcatMTX)
	if concatID != dr.ID {
		t.Fatalf("delta address %s, from-scratch address %s", dr.ID, concatID)
	}
	scratchStats := getStats(t, ts2.URL, concatID, 4)
	if s2.Metric("stats_collect_total") != 1 {
		t.Fatalf("scratch server should have collected exactly once")
	}
	if !bytes.Equal(mergedStats, scratchStats) {
		t.Fatalf("merged statistics differ from scratch collection:\nmerged:  %s\nscratch: %s", mergedStats, scratchStats)
	}
}

// TestDeltaStoresNewVersionArtifact checks the artifact persisted for a
// delta version — encoded once, with its content address — equals a
// separate encode of the registered tensor, and that repeating the
// delta finds the version already registered.
func TestDeltaStoresNewVersionArtifact(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	baseID := uploadMTX(t, ts.URL, deltaBaseMTX)
	req := map[string]any{"crds": [][]int{{0, 1}, {6, 0}}, "vals": []float64{4, 5}, "tile": 4}
	var ids []string
	for i, wantCached := range []bool{false, true} {
		resp, body := postJSON(t, ts.URL+"/v1/tensors/"+baseID+"/delta", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", i, resp.StatusCode, body)
		}
		var dr struct {
			ID     string `json:"id"`
			Cached bool   `json:"cached"`
		}
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Cached != wantCached {
			t.Fatalf("delta %d: cached %v, want %v", i, dr.Cached, wantCached)
		}
		ids = append(ids, dr.ID)
	}
	if ids[0] != ids[1] {
		t.Fatalf("one delta gave two addresses %v", ids)
	}
	ctx := context.Background()
	nt, err := s.tensorByID(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := snapshot.EncodeBytes(&snapshot.Artifact{Tensor: nt.COO()})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.storeGet(ctx, ids[0]); !bytes.Equal(got, want) {
		t.Fatalf("stored artifact (%d bytes) differs from EncodeBytes of the new version (%d bytes)", len(got), len(want))
	}
}

// TestDeltaRejections sweeps the delta request's failure surface.
func TestDeltaRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	baseID := uploadMTX(t, ts.URL, deltaBaseMTX)
	post := func(body map[string]any) int {
		resp, rb := postJSON(t, ts.URL+"/v1/tensors/"+baseID+"/delta", body)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rb, &e); err != nil || e.Error == "" {
			t.Fatalf("error body not JSON: %s", rb)
		}
		return resp.StatusCode
	}
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"collides with base", map[string]any{"crds": [][]int{{0, 0}}, "vals": []float64{1}}, http.StatusUnprocessableEntity},
		{"intra-delta duplicate", map[string]any{"crds": [][]int{{3, 3}, {3, 3}}, "vals": []float64{1, 1}}, http.StatusUnprocessableEntity},
		{"arity mismatch", map[string]any{"crds": [][]int{{1, 2, 3}}, "vals": []float64{1}}, http.StatusBadRequest},
		{"out of range", map[string]any{"crds": [][]int{{0, 8}}, "vals": []float64{1}}, http.StatusBadRequest},
		{"count mismatch", map[string]any{"crds": [][]int{{3, 3}}, "vals": []float64{1, 2}}, http.StatusBadRequest},
		{"bad tile", map[string]any{"crds": [][]int{{3, 3}}, "vals": []float64{1}, "tile": -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/tensors/sha256:"+strings.Repeat("0", 64)+"/delta",
		map[string]any{"crds": [][]int{{1, 1}}, "vals": []float64{1}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tensor: status %d, want 404", resp.StatusCode)
	}
	if s.Metric("delta_errors") == 0 {
		t.Errorf("delta_errors never moved")
	}
	if s.Metric("delta_merges") != 0 {
		t.Errorf("a rejected delta counted as a merge")
	}
}

// TestIngestTooLarge is the regression test for the upload-limit
// response: a body one byte past MaxUploadBytes must answer 413 (not a
// generic 400) and move the ingest_too_large counter, while a body at
// the limit gets past the reader (failing later as a parse error).
func TestIngestTooLarge(t *testing.T) {
	const limit = 1024
	s, ts := newTestServer(t, Config{MaxUploadBytes: limit})

	resp, err := http.Post(ts.URL+"/v1/tensors", "text/plain",
		bytes.NewReader(make([]byte, limit+1)))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("limit+1 upload: status %d, want 413: %s", resp.StatusCode, body)
	}
	if got := s.Metric("ingest_too_large"); got != 1 {
		t.Fatalf("ingest_too_large = %d, want 1", got)
	}

	resp, err = http.Post(ts.URL+"/v1/tensors", "text/plain",
		bytes.NewReader(make([]byte, limit)))
	if err != nil {
		t.Fatalf("at-limit upload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("at-limit garbage: status %d, want 400", resp.StatusCode)
	}
	if got := s.Metric("ingest_too_large"); got != 1 {
		t.Fatalf("at-limit upload counted as too large")
	}

	// The JSON path clamps to MaxUploadBytes too: a structured body past
	// the configured bound is 413, not silently admitted under the old
	// hardcoded 1 MiB.
	bigLabel := `{"gen":{"label":"` + strings.Repeat("x", limit) + `","scale":1}}`
	resp, err = http.Post(ts.URL+"/v1/tensors", "application/json", strings.NewReader(bigLabel))
	if err != nil {
		t.Fatalf("json upload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body: status %d, want 413", resp.StatusCode)
	}
	if got := s.Metric("ingest_too_large"); got != 2 {
		t.Fatalf("ingest_too_large = %d, want 2", got)
	}
}

// TestIngestStorePutError poisons the artifact store's shard paths with
// regular files so every disk Put fails, and proves ingest still
// answers (registration is in-memory) while the failure is counted —
// the write error must not be swallowed into a replication of bytes the
// node cannot back.
func TestIngestStorePutError(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := newTestServer(t, Config{CacheDir: dir})
	resp, err := http.Post(ts.URL+"/v1/tensors", "text/plain", strings.NewReader(deltaBaseMTX))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with broken store: status %d: %s", resp.StatusCode, body)
	}
	if got := s.Metric("store_put_errors"); got != 1 {
		t.Fatalf("store_put_errors = %d, want 1", got)
	}
}

// BenchmarkServeBatchWarm measures a warm 4-job /v1/batch through the
// full handler stack: four response-cache hits plus the per-job
// canonicalization, in one request.
func BenchmarkServeBatchWarm(b *testing.B) {
	s, ts := newTestServer(b, Config{})
	id := ingestGen(b, ts.URL, "C", 1<<20)
	jobs := make([]map[string]any, 4)
	extras := []map[string]any{nil, {"disableCorrs": true}, {"skipResize": true}, {"analytic": true}}
	for i := range jobs {
		jobs[i] = map[string]any{
			"kernel": testKernel,
			"inputs": map[string]string{"A": id, "B": id},
			"tile":   32,
		}
		for k, v := range extras[i] {
			jobs[i][k] = v
		}
	}
	reqBody, _ := json.Marshal(map[string]any{"jobs": jobs})
	h := s.Handler()
	run := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(reqBody))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := run(); code != http.StatusOK { // cold fill
		b.Fatalf("cold batch: status %d", code)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if code := run(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServeDeltaSmall measures a small delta ingest end to end:
// collision scan, partial load, touched-tile re-summarize, merge,
// finalize, register. Each iteration appends a fresh coordinate so the
// merge actually runs (addresses differ every time).
func BenchmarkServeDeltaSmall(b *testing.B) {
	_, ts := newTestServer(b, Config{})
	baseID := uploadMTX(b, ts.URL, deltaBaseMTX)
	b.ResetTimer()
	b.ReportAllocs()
	id := baseID
	crd := 0
	for i := 0; i < b.N; i++ {
		// March through unoccupied coordinates of the 8x8 grid; wrap by
		// rebasing on the original tensor.
		if crd%64 == 0 {
			id = baseID
		}
		x, y := (crd/8)%8, crd%8
		crd++
		if (x == 0 && y == 0) || (x == 1 && y == 2) || (x == 4 && y == 4) || (x == 7 && y == 7) ||
			(x == 0 && y == 1) || (x == 6 && y == 0) {
			continue // occupied in the base or an earlier iteration's path
		}
		resp, body := postJSON(b, ts.URL+"/v1/tensors/"+id+"/delta", map[string]any{
			"crds": [][]int{{x, y}},
			"vals": []float64{1},
			"tile": 4,
		})
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("delta: status %d: %s", resp.StatusCode, body)
		}
		var dr struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &dr); err != nil {
			b.Fatal(err)
		}
		id = dr.ID
	}
}
