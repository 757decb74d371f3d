package serve

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// varsSurfacePeers configures two peers nothing listens on: every
// forward, artifact fetch and replication push to them fails at once,
// and the fixed URLs fix the ring's key placement, so the counts below
// are the same on every run.
var varsSurfacePeers = Config{
	SelfURL:       "http://127.0.0.1:3",
	Peers:         []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
	ClusterSecret: "secret",
}

// readVars GETs /debug/vars and returns the d2t2d map's keys in the
// order they were rendered, their values, and the body length.
func readVars(t *testing.T, url string) ([]string, map[string]int64, int) {
	t.Helper()
	resp, err := http.Get(url + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		D2t2d json.RawMessage `json:"d2t2d"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	dec := json.NewDecoder(strings.NewReader(string(doc.D2t2d)))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	vals := map[string]int64{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		key := tok.(string)
		var v int64
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		keys = append(keys, key)
		vals[key] = v
	}
	return keys, vals, len(body)
}

// latencyKeys are the optimize-latency histogram's counters, cumulative
// in this order.
var latencyKeys = []string{
	"optimize_latency_ms_le_1",
	"optimize_latency_ms_le_5",
	"optimize_latency_ms_le_25",
	"optimize_latency_ms_le_100",
	"optimize_latency_ms_le_500",
	"optimize_latency_ms_le_2500",
	"optimize_latency_ms_gt_2500",
}

// TestVarsSurface pins what /debug/vars shows an operator: on a fresh
// two-peer server exactly the pre-registered counters, the latency
// histogram and the per-peer counters, sorted and all zero; after a
// scripted request sequence, every value. The histogram is timing
// dependent, so only its total and its cumulative order are pinned.
func TestVarsSurface(t *testing.T) {
	s, ts := newTestServer(t, varsSurfacePeers)

	keys, vals, freshLen := readVars(t, ts.URL)
	want := append([]string(nil), counterNames[:]...)
	want = append(want, latencyKeys...)
	for _, p := range []string{"peer_0_", "peer_1_"} {
		for _, k := range []string{"fetch_hits", "fetch_misses", "fetch_errors", "forwards", "replicas"} {
			want = append(want, p+k)
		}
	}
	sort.Strings(want)
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("fresh /debug/vars keys:\n got %v\nwant %v", keys, want)
	}
	for k, v := range vals {
		if v != 0 {
			t.Errorf("fresh %s = %d, want 0", k, v)
		}
	}

	// The script: two uploads, a cold and a warm optimize, a predict, a
	// 4-job batch (one job a warm hit), a delta and a malformed request.
	id := ingestGen(t, ts.URL, "C", 1<<20)
	optReq := map[string]any{"kernel": testKernel, "inputs": map[string]string{"A": id, "B": id}, "tile": 32}
	// The key's owner is a peer, so the warm repeat is a replica hit.
	for _, state := range []string{"miss", "replica"} {
		resp, body := postJSON(t, ts.URL+"/v1/optimize", optReq)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-D2T2-Cache") != state {
			t.Fatalf("optimize: status %d cache %q, want %s: %s", resp.StatusCode, resp.Header.Get("X-D2T2-Cache"), state, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"kernel": testKernel, "inputs": map[string]string{"A": id, "B": id},
		"config": map[string]int{"i": 32, "k": 32, "j": 32},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, body)
	}
	var jobs []map[string]any
	for _, tile := range []int{32, 16, 64, 8} {
		jobs = append(jobs, map[string]any{"kernel": testKernel, "inputs": map[string]string{"A": id, "B": id}, "tile": tile})
	}
	if _, res := postBatch(t, ts.URL, jobs); len(res) != 4 {
		t.Fatalf("batch answered %d jobs, want 4", len(res))
	}
	baseID := uploadMTX(t, ts.URL, deltaBaseMTX)
	resp, body = postJSON(t, ts.URL+"/v1/tensors/"+baseID+"/delta", map[string]any{
		"crds": [][]int{{0, 1}, {6, 0}}, "vals": []float64{4, 5}, "tile": 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(`{"kernel": `))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed optimize: status %d, want 400", resp.StatusCode)
	}
	s.cluster.wg.Wait() // land the replication pushes

	keys, vals, _ = readVars(t, ts.URL)
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("/debug/vars keys changed under traffic:\n got %v\nwant %v", keys, want)
	}
	// Counters not named here read 0. The batch prices its jobs' shapes
	// in parallel on shared memos, so which of them derive from a priced
	// shape varies from run to run: the two shape counters' sum is
	// pinned, and the micro count only by a ceiling below. bytes_served
	// also holds the fresh
	// read's body, whose length carries the build's version string.
	pinned := map[string]int64{
		"artifact_mem_hits":      3,
		"artifact_misses":        13,
		"batch_cache_hits":       1,
		"batch_jobs_total":       4,
		"batch_local_jobs":       3,
		"batch_total":            1,
		"bytes_served":           1871 + int64(freshLen),
		"delta_merges":           1,
		"delta_total":            1,
		"forward_attempts":       4,
		"forward_fallback_local": 2,
		"http_errors":            1,
		"ingest_total":           2,
		"optimize_cache_hits":    1,
		"optimize_total":         3,
		"peer_0_fetch_errors":    13,
		"peer_1_fetch_errors":    13,
		"peer_fetch_errors":      26,
		"predict_total":          1,
		"predictions_computed":   33,
		"replica_hits":           2,
		"replicate_errors":       20,
		"singleflight_leader":    2,
		"stats_collect_total":    4,
		"stats_merge_total":      1,
		"tensors_registered":     3,
	}
	for _, k := range want {
		if strings.HasPrefix(k, "optimize_latency_ms_") || strings.HasPrefix(k, "shape_evals_") {
			continue
		}
		if vals[k] != pinned[k] {
			t.Errorf("%s = %d, want %d", k, vals[k], pinned[k])
		}
	}
	if got := vals["shape_evals_micro"] + vals["shape_evals_derived"]; got != 54 {
		t.Errorf("shape_evals_micro + shape_evals_derived = %d, want 54", got)
	}
	// Each optimize lands its inputs' common refinements before its RF
	// sweep, so most shapes derive: the micro count reads 12–13, against
	// 35–38 when every RF shape was priced from the micro summary. The
	// split still varies with the batch's schedule, so only a ceiling is
	// pinned: half the lowest count of the direct pricing.
	t.Logf("shape_evals_micro = %d, shape_evals_derived = %d", vals["shape_evals_micro"], vals["shape_evals_derived"])
	if got := vals["shape_evals_micro"]; got > 17 {
		t.Errorf("shape_evals_micro = %d, want at most 17", got)
	}
	// Three optimizes reached the timed handler; each lands in exactly
	// one bucket of the cumulative chain's last two.
	if got := vals["optimize_latency_ms_le_2500"] + vals["optimize_latency_ms_gt_2500"]; got != 3 {
		t.Errorf("optimize latency histogram holds %d requests, want 3", got)
	}
	for i := 1; i < len(latencyKeys)-1; i++ {
		if vals[latencyKeys[i-1]] > vals[latencyKeys[i]] {
			t.Errorf("%s = %d exceeds %s = %d; the buckets are cumulative",
				latencyKeys[i-1], vals[latencyKeys[i-1]], latencyKeys[i], vals[latencyKeys[i]])
		}
	}
}

// TestCounterNames checks every name a two-peer server registers: each
// is lower snake_case starting with a letter, and none collides with
// another (a collision would register fewer keys than counters).
func TestCounterNames(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for k, name := range peerKindNames {
		if !snake.MatchString(name) {
			t.Errorf("peer kind %d is named %q, want lower snake_case", k, name)
		}
	}
	m := newMetrics()
	m.initPeerCounters(2)
	n := 0
	m.vars.Do(func(kv expvar.KeyValue) {
		n++
		if !snake.MatchString(kv.Key) {
			t.Errorf("counter %q is not lower snake_case", kv.Key)
		}
	})
	if want := int(numCounters) + len(latencyNames) + 2*int(numPeerKinds); n != want {
		t.Errorf("registered %d names for %d counters; a name is missing or repeated", n, want)
	}
}
