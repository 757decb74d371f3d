package cluster_test

// Multi-node end-to-end tests: three real serve.Servers wired into one
// cluster over loopback HTTP. The httptest listeners exist before the
// servers (each fronted by a swappable handler proxy), so every node
// knows the full member URL set at construction — the same order of
// operations a static -peers deployment has.
//
// The tests prove the cluster's three core claims by counters and bytes:
// identical cold work runs once fleet-wide (sum of singleflight_leader
// across nodes is 1), every node serves byte-identical bodies for a key
// whatever rung produced them, and a dead owner costs latency, never
// availability (forward falls back to local compute).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"d2t2"
	"d2t2/internal/cluster"
	"d2t2/internal/serve"
	"d2t2/internal/snapshot"
)

const e2eKernel = "C(i,j) = A(i,k) * B(k,j) | order: i,k,j"

// handlerProxy lets an httptest listener exist before the handler it
// serves: the test learns every node's URL first, then builds the
// servers with full membership and swaps them in. Swapping in an
// aborting handler later is how a test "kills" a node without closing
// its listener (peers see connection resets, as with a crashed process
// behind a live load balancer).
type handlerProxy struct{ h atomic.Value }

func (p *handlerProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.h.Load().(http.Handler).ServeHTTP(w, r)
}

type testNode struct {
	srv   *serve.Server
	url   string
	proxy *handlerProxy
}

// kill makes the node unreachable mid-connection: every subsequent
// request — internal or public — aborts without a response.
func (n *testNode) kill() {
	n.proxy.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
}

// newTestCluster starts n clustered nodes with the given replication
// factor and returns them; everything is torn down with the test.
func newTestCluster(t testing.TB, n, replication int) []*testNode {
	t.Helper()
	const secret = "e2e-cluster-secret"
	nodes := make([]*testNode, n)
	urls := make([]string, n)
	dirs := make([]string, n)
	for i := range nodes {
		// Cleanups run last-in first-out: making the cache directory
		// before the server closes the server, and so finishes every
		// in-flight push into the directory, before the directory goes.
		dirs[i] = t.TempDir()
		p := &handlerProxy{}
		p.h.Store(http.NotFoundHandler())
		ts := httptest.NewServer(p)
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{url: ts.URL, proxy: p}
		urls[i] = ts.URL
	}
	for i, nd := range nodes {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		s, err := serve.New(serve.Config{
			CacheDir:      dirs[i],
			Peers:         peers,
			SelfURL:       nd.url,
			ClusterSecret: secret,
			Replication:   replication,
			PeerTimeout:   20 * time.Second,
		})
		if err != nil {
			t.Fatalf("node %d New: %v", i, err)
		}
		nd.srv = s
		nd.proxy.h.Store(s.Handler())
		t.Cleanup(func() { s.Shutdown(context.Background()) })
	}
	return nodes
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

func ingestGen(t testing.TB, node *testNode, label string, scale int) string {
	t.Helper()
	resp, body := postJSON(t, node.url+"/v1/tensors", map[string]any{
		"gen": map[string]any{"label": label, "scale": scale},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	var ir struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	return ir.ID
}

// optimizeKeyFor derives the response key a node will compute for an
// optimize request, client-side: the canonical form re-marshals the
// normalized kernel with defaults applied and zero-valued knobs
// omitted, exactly as the handler does. The tests cross-check it
// against the X-D2T2-Key response header, so a drift between this
// mirror and the server fails loudly.
func optimizeKeyFor(t testing.TB, kernel string, inputs map[string]string, tile int) string {
	t.Helper()
	k, err := d2t2.ParseKernel(kernel)
	if err != nil {
		t.Fatalf("parse kernel: %v", err)
	}
	canon, err := json.Marshal(struct {
		Kernel      string            `json:"kernel"`
		Inputs      map[string]string `json:"inputs"`
		BufferWords int               `json:"bufferWords,omitempty"`
	}{k.String(), inputs, d2t2.DenseTileWords(tile, tile)})
	if err != nil {
		t.Fatalf("marshal canonical request: %v", err)
	}
	return snapshot.ResponseKey("optimize", canon)
}

// predictConfig is the tile configuration the e2e predict requests
// price.
var predictConfig = map[string]int{"i": 16, "k": 16, "j": 16}

// predictKeyFor mirrors the server's canonical predict request the way
// optimizeKeyFor mirrors optimize: normalized kernel, the request's
// inputs and config, and the statistics tile.
func predictKeyFor(t testing.TB, kernel string, inputs map[string]string, statsTile int) string {
	t.Helper()
	k, err := d2t2.ParseKernel(kernel)
	if err != nil {
		t.Fatalf("parse kernel: %v", err)
	}
	canon, err := json.Marshal(struct {
		Kernel    string            `json:"kernel"`
		Inputs    map[string]string `json:"inputs"`
		Config    map[string]int    `json:"config"`
		StatsTile int               `json:"statsTile,omitempty"`
	}{k.String(), inputs, predictConfig, statsTile})
	if err != nil {
		t.Fatalf("marshal canonical request: %v", err)
	}
	return snapshot.ResponseKey("predict", canon)
}

// optimizeVia sends one optimize request to node and returns the cache
// state header, the response key header, and the body.
func optimizeVia(t testing.TB, node *testNode, inputs map[string]string, tile int) (state, key string, body []byte) {
	t.Helper()
	return postVia(t, node, "/v1/optimize", map[string]any{
		"kernel": e2eKernel,
		"inputs": inputs,
		"tile":   tile,
	})
}

// postVia sends one single request to node's path, requires a 200, and
// returns the cache state header, the response key header, and the
// body.
func postVia(t testing.TB, node *testNode, path string, req map[string]any) (state, key string, body []byte) {
	t.Helper()
	resp, body := postJSON(t, node.url+path, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s via %s: status %d: %s", path, node.url, resp.StatusCode, body)
	}
	return resp.Header.Get("X-D2T2-Cache"), resp.Header.Get("X-D2T2-Key"), body
}

// ownerAndOthers splits the nodes by ring ownership of key.
func ownerAndOthers(t testing.TB, nodes []*testNode, key string) (owner *testNode, others []*testNode) {
	t.Helper()
	ownerURL, ok := nodes[0].srv.OwnerOf(key)
	if !ok {
		t.Fatalf("OwnerOf on a clustered server returned !ok")
	}
	for _, nd := range nodes {
		if nd.url == ownerURL {
			owner = nd
		} else {
			others = append(others, nd)
		}
	}
	if owner == nil {
		t.Fatalf("owner %s is not a cluster member", ownerURL)
	}
	// Every node must agree on placement.
	for _, nd := range nodes {
		if got, _ := nd.srv.OwnerOf(key); got != ownerURL {
			t.Fatalf("ring views disagree: %s says owner %s, %s says %s",
				nodes[0].url, ownerURL, nd.url, got)
		}
	}
	return owner, others
}

func sumMetric(nodes []*testNode, name string) int64 {
	var total int64
	for _, nd := range nodes {
		total += nd.srv.Metric(name)
	}
	return total
}

// ringSuccessor returns the member a key's owner pushes its one replica
// to at replication factor 1: the ring is a pure function of the
// membership, so a ring over the same URLs places keys as the nodes do.
func ringSuccessor(t testing.TB, nodes []*testNode, key string) string {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, nd := range nodes {
		urls[i] = nd.url
	}
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	succ := ring.Successors(key, 1)
	if len(succ) != 1 {
		t.Fatalf("key %s has %d successors, want 1", key, len(succ))
	}
	return succ[0]
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClusterColdOptimizeOncePerKey fires identical cold optimize
// requests at every node concurrently and proves by counters that the
// expensive pipeline ran exactly once fleet-wide: one singleflight
// leader across all three nodes, byte-identical bodies everywhere, one
// agreed key.
func TestClusterColdOptimizeOncePerKey(t *testing.T) {
	nodes := newTestCluster(t, 3, 1)
	inputs := map[string]string{
		"A": ingestGen(t, nodes[0], "C", 32),
		"B": ingestGen(t, nodes[0], "D", 32),
	}
	const tile = 64
	wantKey := optimizeKeyFor(t, e2eKernel, inputs, tile)

	const perNode = 2
	var (
		mu     sync.Mutex
		bodies [][]byte
		keys   []string
	)
	var wg sync.WaitGroup
	for _, nd := range nodes {
		for r := 0; r < perNode; r++ {
			wg.Add(1)
			go func(nd *testNode) {
				defer wg.Done()
				_, key, body := optimizeVia(t, nd, inputs, tile)
				mu.Lock()
				bodies = append(bodies, body)
				keys = append(keys, key)
				mu.Unlock()
			}(nd)
		}
	}
	wg.Wait()

	for i, k := range keys {
		if k != wantKey {
			t.Fatalf("request %d: key %s, want %s (client-side canonical mirror drifted?)", i, k, wantKey)
		}
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i+1, b, bodies[0])
		}
	}
	if leaders := sumMetric(nodes, "singleflight_leader"); leaders != 1 {
		t.Fatalf("cold pipeline ran %d times fleet-wide, want exactly 1", leaders)
	}

	// Warm repeats from every node: stats collection must stay flat and
	// no new leader may appear.
	collected := sumMetric(nodes, "stats_collect_total")
	for _, nd := range nodes {
		_, _, body := optimizeVia(t, nd, inputs, tile)
		if !bytes.Equal(body, bodies[0]) {
			t.Fatalf("warm body via %s differs from cold", nd.url)
		}
	}
	if got := sumMetric(nodes, "stats_collect_total"); got != collected {
		t.Fatalf("warm requests re-collected statistics: %d -> %d", collected, got)
	}
	if leaders := sumMetric(nodes, "singleflight_leader"); leaders != 1 {
		t.Fatalf("warm requests started a new flight: %d leaders", leaders)
	}
}

// holdsArtifact asks node — over the authenticated internal route,
// which reads local layers only and never cache-fills — whether it
// holds key right now. This is how the tests observe replica placement
// without perturbing it.
func holdsArtifact(t testing.TB, node *testNode, key string) bool {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, node.url+"/internal/v1/artifact/"+key, nil)
	if err != nil {
		t.Fatalf("build internal get: %v", err)
	}
	req.Header.Set("X-D2T2-Cluster-Secret", "e2e-cluster-secret")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("internal get %s: %v", node.url, err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	switch res.StatusCode {
	case http.StatusOK:
		return true
	case http.StatusNotFound:
		return false
	default:
		t.Fatalf("internal get %s: status %d", node.url, res.StatusCode)
		return false
	}
}

// TestClusterCacheStateLadder walks keys through every X-D2T2-Cache
// state deterministically, for both single-request endpoints: forwarded
// (cold on a non-owner), hit (warm on the owner), replica (warm local
// copy on a non-owner — landed via replication or a forward's
// cache-fill), peer (read-through on a non-owner that holds nothing
// locally). Every state serves byte-identical bodies.
func TestClusterCacheStateLadder(t *testing.T) {
	for _, ep := range []struct {
		path string
		// req builds the endpoint's request at one size (a tile or a
		// statistics tile), key mirrors the response key it derives.
		req func(inputs map[string]string, size int) map[string]any
		key func(t testing.TB, inputs map[string]string, size int) string
	}{
		{
			path: "/v1/optimize",
			req: func(inputs map[string]string, tile int) map[string]any {
				return map[string]any{"kernel": e2eKernel, "inputs": inputs, "tile": tile}
			},
			key: func(t testing.TB, inputs map[string]string, tile int) string {
				return optimizeKeyFor(t, e2eKernel, inputs, tile)
			},
		},
		{
			path: "/v1/predict",
			req: func(inputs map[string]string, statsTile int) map[string]any {
				return map[string]any{"kernel": e2eKernel, "inputs": inputs, "config": predictConfig, "statsTile": statsTile}
			},
			key: func(t testing.TB, inputs map[string]string, statsTile int) string {
				return predictKeyFor(t, e2eKernel, inputs, statsTile)
			},
		},
	} {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			nodes := newTestCluster(t, 3, 1)
			inputs := map[string]string{
				"A": ingestGen(t, nodes[0], "C", 32),
				"B": ingestGen(t, nodes[0], "D", 32),
			}
			via := func(node *testNode, size int) (state, key string, body []byte) {
				return postVia(t, node, ep.path, ep.req(inputs, size))
			}
			const size = 96
			key := ep.key(t, inputs, size)
			owner, others := ownerAndOthers(t, nodes, key)

			state, gotKey, cold := via(others[0], size)
			if gotKey != key {
				t.Fatalf("served key %s, want %s", gotKey, key)
			}
			if state != "forwarded" {
				t.Fatalf("cold non-owner request: state %q, want \"forwarded\"", state)
			}
			if owner.srv.Metric("singleflight_leader") != 1 {
				t.Fatalf("forward did not run the flight on the owner")
			}

			state, _, body := via(owner, size)
			if state != "hit" || !bytes.Equal(body, cold) {
				t.Fatalf("warm owner request: state %q (want \"hit\"), bytes equal %v", state, bytes.Equal(body, cold))
			}

			// The forwarder cache-filled from the owner's bytes: local copy
			// of a key it does not own.
			state, _, body = via(others[0], size)
			if state != "replica" || !bytes.Equal(body, cold) {
				t.Fatalf("forwarder warm request: state %q (want \"replica\"), bytes equal %v", state, bytes.Equal(body, cold))
			}

			// The owner's one replica push goes to key's ring successor. When
			// that is the other non-owner, wait for the push to land and
			// expect "replica"; otherwise nothing ever pushes key there and
			// its first warm request reads through: "peer". Then "replica"
			// ever after.
			wantFirst := "peer"
			if ringSuccessor(t, nodes, key) == others[1].url {
				wantFirst = "replica"
				waitFor(t, "the replica push to "+others[1].url, func() bool { return holdsArtifact(t, others[1], key) })
			}
			state, _, body = via(others[1], size)
			if state != wantFirst || !bytes.Equal(body, cold) {
				t.Fatalf("first warm request on %s: state %q (want %q), bytes equal %v", others[1].url, state, wantFirst, bytes.Equal(body, cold))
			}
			state, _, body = via(others[1], size)
			if state != "replica" || !bytes.Equal(body, cold) {
				t.Fatalf("locally filled non-owner: state %q (want \"replica\"), bytes equal %v", state, bytes.Equal(body, cold))
			}

			// Force a guaranteed read-through "peer": a fresh key computed on
			// the owner with the other nodes untouched; the non-successor
			// non-owner (whichever holds nothing after replication quiesces)
			// must fetch.
			const size2 = 112
			key2 := ep.key(t, inputs, size2)
			owner2, others2 := ownerAndOthers(t, nodes, key2)
			state, _, cold2 := via(owner2, size2)
			if state != "miss" {
				t.Fatalf("cold owner request for key2: state %q, want \"miss\"", state)
			}
			// Wait until the single replica push lands (exactly one
			// non-owner holds key2), then the other one is guaranteed empty.
			var empty *testNode
			deadline := time.Now().Add(10 * time.Second)
			for empty == nil {
				if holdsArtifact(t, others2[0], key2) {
					empty = others2[1]
				} else if holdsArtifact(t, others2[1], key2) {
					empty = others2[0]
				} else if time.Now().After(deadline) {
					t.Fatalf("replica push for key2 never landed on either non-owner")
				} else {
					time.Sleep(5 * time.Millisecond)
				}
			}
			if holdsArtifact(t, empty, key2) {
				t.Fatalf("both non-owners hold key2; replication factor 1 should leave one empty")
			}
			state, _, body = via(empty, size2)
			if state != "peer" || !bytes.Equal(body, cold2) {
				t.Fatalf("read-through on empty non-owner: state %q (want \"peer\"), bytes equal %v", state, bytes.Equal(body, cold2))
			}
			if hits := sumMetric(nodes, "replica_hits"); hits < 2 {
				t.Fatalf("replica_hits = %d, want >= 2", hits)
			}
		})
	}
}

// TestClusterForwardedCalibratedNotCached posts one calibrated optimize
// to every node. Calibrated responses are stateful — the calibration
// store advances on every run — so a non-owner still forwards to the
// owner ("forwarded"), but must not cache-fill the owner's bytes, and
// the owner must not persist its own.
func TestClusterForwardedCalibratedNotCached(t *testing.T) {
	nodes := newTestCluster(t, 3, 1)
	id := ingestGen(t, nodes[0], "C", 32)
	req := map[string]any{
		"kernel":    e2eKernel,
		"inputs":    map[string]string{"A": id, "B": id},
		"tile":      32,
		"calibrate": true,
	}
	_, key, _ := postVia(t, nodes[0], "/v1/optimize", req)
	owner, others := ownerAndOthers(t, nodes, key)
	for _, nd := range others {
		state, gotKey, _ := postVia(t, nd, "/v1/optimize", req)
		if gotKey != key {
			t.Fatalf("non-owner %s served key %s, want %s", nd.url, gotKey, key)
		}
		if state != "forwarded" {
			t.Fatalf("calibrated request on non-owner %s: state %q, want \"forwarded\"", nd.url, state)
		}
	}
	for _, nd := range nodes {
		if holdsArtifact(t, nd, key) {
			t.Fatalf("node %s (owner %v) holds the calibrated response artifact", nd.url, nd == owner)
		}
	}
}

// TestClusterOwnerKilledMidFlight kills a key's owner and proves the
// fallback ladder preserves availability: the forward fails, the
// serving node computes locally, the client still gets a correct 200 —
// and the surviving nodes still report ready (one live peer suffices),
// while a node whose peers are all dead reports unready.
func TestClusterOwnerKilledMidFlight(t *testing.T) {
	nodes := newTestCluster(t, 3, 1)
	inputs := map[string]string{
		"A": ingestGen(t, nodes[0], "C", 32),
		"B": ingestGen(t, nodes[0], "D", 32),
	}

	// Pick a tile whose key is owned by a node that did NOT ingest (so
	// the surviving path also exercises tensor peer-fetch from node 0).
	tile, key := 0, ""
	var victim *testNode
	var survivors []*testNode
	for cand := 48; cand < 48+64; cand += 8 {
		k := optimizeKeyFor(t, e2eKernel, inputs, cand)
		owner, others := ownerAndOthers(t, nodes, k)
		if owner != nodes[0] {
			tile, key, victim, survivors = cand, k, owner, others
			break
		}
	}
	if victim == nil {
		t.Fatalf("no candidate key owned by a non-ingesting node (ring badly skewed?)")
	}

	victim.kill()

	serving := survivors[0]
	if serving == nodes[0] && len(survivors) > 1 {
		serving = survivors[1] // prefer a node that must fetch tensors remotely
	}
	state, gotKey, body := optimizeVia(t, serving, inputs, tile)
	if gotKey != key {
		t.Fatalf("served key %s, want %s", gotKey, key)
	}
	if state != "miss" {
		t.Fatalf("fallback request: state %q, want \"miss\" (local compute)", state)
	}
	var resp struct {
		PredictedMB float64 `json:"predictedMB"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.PredictedMB <= 0 {
		t.Fatalf("fallback response implausible (err %v): %s", err, body)
	}
	if serving.srv.Metric("forward_fallback_local") != 1 {
		t.Fatalf("forward_fallback_local = %d, want 1", serving.srv.Metric("forward_fallback_local"))
	}
	if serving.srv.Metric("forward_success") != 0 {
		t.Fatalf("forward to a dead owner reported success")
	}
	if serving.srv.Metric("singleflight_leader") != 1 {
		t.Fatalf("local fallback did not run its own flight")
	}

	// Readiness: survivors still see each other.
	for _, nd := range survivors {
		res, err := http.Get(nd.url + "/readyz")
		if err != nil {
			t.Fatalf("readyz %s: %v", nd.url, err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("survivor %s readyz: status %d, want 200", nd.url, res.StatusCode)
		}
	}
	// A fully isolated node is unready: kill the second survivor too and
	// probe the first (its only remaining peers are now both dead).
	survivors[1].kill()
	res, err := http.Get(survivors[0].url + "/readyz")
	if err != nil {
		t.Fatalf("readyz after isolation: %v", err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("isolated node readyz: status %d, want 503", res.StatusCode)
	}
	if survivors[0].srv.Metric("readyz_unready") == 0 {
		t.Fatalf("readyz_unready never counted")
	}
}

// TestClusterReplication runs a cold optimize directly on the owner
// with full replication (R = 2 of 3 nodes) and proves every produced
// artifact lands on every other node: the push counters converge to
// artifacts x targets, and afterwards each node answers warm requests
// from purely local layers (no peer fetch).
func TestClusterReplication(t *testing.T) {
	nodes := newTestCluster(t, 3, 2)
	inputs := map[string]string{
		"A": ingestGen(t, nodes[0], "C", 32),
		"B": ingestGen(t, nodes[0], "D", 32),
	}
	const tile = 80
	key := optimizeKeyFor(t, e2eKernel, inputs, tile)
	owner, _ := ownerAndOthers(t, nodes, key)

	state, _, cold := optimizeVia(t, owner, inputs, tile)
	if state != "miss" {
		t.Fatalf("cold owner request: state %q, want \"miss\"", state)
	}

	// Five artifacts exist fleet-wide: two ingested tensors, two stats
	// bundles, one response. With R=2 each is pushed to both non-producing
	// nodes: 10 successful pushes, 10 verified receipts.
	const wantPushes = 10
	deadline := time.Now().Add(10 * time.Second)
	for {
		pushes := sumMetric(nodes, "replicate_pushes")
		stores := sumMetric(nodes, "internal_artifact_stores")
		if pushes == wantPushes && stores == wantPushes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never converged: %d pushes, %d stores, want %d each (errors: %d)",
				pushes, stores, wantPushes, sumMetric(nodes, "replicate_errors"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if errs := sumMetric(nodes, "replicate_errors"); errs != 0 {
		t.Fatalf("replicate_errors = %d, want 0", errs)
	}

	// Every node now serves the key from local layers only.
	for _, nd := range nodes {
		before := nd.srv.Metric("artifact_peer_hits")
		state, _, body := optimizeVia(t, nd, inputs, tile)
		want := "replica"
		if nd == owner {
			want = "hit"
		}
		if state != want || !bytes.Equal(body, cold) {
			t.Fatalf("replicated warm request via %s: state %q (want %q), bytes equal %v",
				nd.url, state, want, bytes.Equal(body, cold))
		}
		if nd.srv.Metric("artifact_peer_hits") != before {
			t.Fatalf("node %s reached for a peer despite holding a replica", nd.url)
		}
	}
}

// TestClusterInternalRoutesAuthenticated probes the peer surface
// without the shared secret: every internal route must refuse before
// touching any state.
func TestClusterInternalRoutesAuthenticated(t *testing.T) {
	nodes := newTestCluster(t, 3, 1)
	fakeKey := fmt.Sprintf("sha256:%064d", 1)
	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodGet, "/internal/v1/artifact/" + fakeKey},
		{http.MethodPut, "/internal/v1/artifact/" + fakeKey},
		{http.MethodPost, "/internal/v1/optimize"},
		{http.MethodPost, "/internal/v1/predict"},
		{http.MethodPost, "/internal/v1/batch"},
		{http.MethodGet, "/internal/v1/ping"},
	} {
		req, err := http.NewRequest(probe.method, nodes[0].url+probe.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatalf("build request: %v", err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", probe.method, probe.path, err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s without secret: status %d, want 403", probe.method, probe.path, res.StatusCode)
		}
	}
	if nodes[0].srv.Metric("internal_auth_failures") != 6 {
		t.Fatalf("internal_auth_failures = %d, want 6", nodes[0].srv.Metric("internal_auth_failures"))
	}
}

// batchVia posts jobs to node's /v1/batch and decodes the results.
func batchVia(t testing.TB, node *testNode, jobs []map[string]any) []struct {
	Key      string          `json:"key"`
	Cache    string          `json:"cache"`
	Response json.RawMessage `json:"response"`
	Error    string          `json:"error"`
} {
	t.Helper()
	resp, body := postJSON(t, node.url+"/v1/batch", map[string]any{"jobs": jobs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch via %s: status %d: %s", node.url, resp.StatusCode, body)
	}
	var br struct {
		Jobs []struct {
			Key      string          `json:"key"`
			Cache    string          `json:"cache"`
			Response json.RawMessage `json:"response"`
			Error    string          `json:"error"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch response: %v: %s", err, body)
	}
	return br.Jobs
}

// TestClusterBatchRoutesToOwners submits one mixed batch to a single
// node and proves the scheduler's cluster claims: every job's key and
// placement match the ring (keys the entry node owns run locally as
// "miss", foreign keys travel to their owners as "forwarded"), each
// forwarded job executed on — and its artifact landed on — its owner,
// and the whole fleet ran every job exactly once (sum of
// batch_local_jobs equals the job count). A follow-up single optimize
// on an owner is a warm byte-identical hit, so batch artifacts and the
// single-request path interoperate across the cluster.
func TestClusterBatchRoutesToOwners(t *testing.T) {
	nodes := newTestCluster(t, 3, 1)
	id := ingestGen(t, nodes[0], "C", 1<<20)
	inputs := map[string]string{"A": id, "B": id}

	tiles := []int{32, 48, 64, 96}
	jobs := make([]map[string]any, len(tiles))
	keys := make([]string, len(tiles))
	owners := make([]*testNode, len(tiles))
	var wantForwarded int64
	for i, tile := range tiles {
		jobs[i] = map[string]any{"kernel": e2eKernel, "inputs": inputs, "tile": tile}
		keys[i] = optimizeKeyFor(t, e2eKernel, inputs, tile)
		owners[i], _ = ownerAndOthers(t, nodes, keys[i])
		if owners[i] != nodes[0] {
			wantForwarded++
		}
	}

	results := batchVia(t, nodes[0], jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Error != "" || len(r.Response) == 0 {
			t.Fatalf("job %d (tile %d) failed: %q", i, tiles[i], r.Error)
		}
		if r.Key != keys[i] {
			t.Fatalf("job %d key %q, client mirror derived %q", i, r.Key, keys[i])
		}
		want := "miss"
		if owners[i] != nodes[0] {
			want = "forwarded"
		}
		if r.Cache != want {
			t.Fatalf("job %d (owner %s, entry %s): cache %q, want %q",
				i, owners[i].url, nodes[0].url, r.Cache, want)
		}
		if !holdsArtifact(t, owners[i], keys[i]) {
			t.Fatalf("job %d artifact did not land on its owner %s", i, owners[i].url)
		}
	}
	if got := nodes[0].srv.Metric("batch_forwarded_jobs"); got != wantForwarded {
		t.Fatalf("batch_forwarded_jobs = %d, want %d", got, wantForwarded)
	}
	if got := sumMetric(nodes, "batch_local_jobs"); got != int64(len(jobs)) {
		t.Fatalf("fleet ran %d local jobs, want %d — work duplicated or lost", got, len(jobs))
	}

	// Batch artifacts serve the single-request path: the owner of job 0
	// answers a plain optimize warm, byte-identical to the batch result.
	state, key, body := optimizeVia(t, owners[0], inputs, tiles[0])
	if state != "hit" || key != keys[0] {
		t.Fatalf("single optimize on owner after batch: state %q key %q", state, key)
	}
	if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(results[0].Response)) {
		t.Fatalf("single optimize body differs from the batch's response")
	}
	// The entry node cache-filled each forwarded body: a single optimize
	// there answers from that copy ("replica") with exactly the owner's
	// bytes.
	for i, tile := range tiles {
		if owners[i] == nodes[0] {
			continue
		}
		_, _, ownerBody := optimizeVia(t, owners[i], inputs, tile)
		state, _, entryBody := optimizeVia(t, nodes[0], inputs, tile)
		if state != "replica" || !bytes.Equal(entryBody, ownerBody) {
			t.Fatalf("job %d on the entry node: state %q, %d bytes; the owner serves %d bytes",
				i, state, len(entryBody), len(ownerBody))
		}
	}

	// A dead owner degrades its group to local compute — latency, never
	// availability. Find a fresh key owned by a peer, kill that peer,
	// and resubmit through the entry node. Ownership follows the nodes'
	// random ports, so the search runs over many tiles: the chance that
	// the entry node owns all of at least 200 fresh tiles is (1/3)^200.
	for tile := 33; tile < 33+200+len(tiles); tile++ {
		if slices.Contains(tiles, tile) {
			continue
		}
		k := optimizeKeyFor(t, e2eKernel, inputs, tile)
		owner, _ := ownerAndOthers(t, nodes, k)
		if owner == nodes[0] {
			continue
		}
		owner.kill()
		res := batchVia(t, nodes[0], []map[string]any{
			{"kernel": e2eKernel, "inputs": inputs, "tile": tile},
		})
		if res[0].Error != "" || res[0].Cache != "miss" {
			t.Fatalf("batch with dead owner: cache %q error %q, want local miss",
				res[0].Cache, res[0].Error)
		}
		return
	}
	t.Fatalf("no candidate tile owned by a peer; extend the tile list")
}
