package cluster_test

// Benchmarks for the three rungs of the cluster read ladder, measured
// through real loopback HTTP on a three-node in-process cluster; run
// them with `go test -run '^$' -bench Cluster ./internal/cluster`. On a
// 1-core CI runner all three servers and the client share one CPU, so
// treat the absolute values as upper bounds — the *ratios* (local hit
// vs peer fetch vs forward hop) are the signal.

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"d2t2"
	"d2t2/internal/cluster"
)

type benchCluster struct {
	nodes  []*testNode
	inputs map[string]string
	tile   int
	key    string
	owner  *testNode
	others []*testNode
}

func newBenchCluster(b *testing.B) *benchCluster {
	b.Helper()
	nodes := newTestCluster(b, 3, 1)
	inputs := map[string]string{
		"A": ingestGen(b, nodes[0], "C", 32),
		"B": ingestGen(b, nodes[0], "D", 32),
	}
	const tile = 64
	key := optimizeKeyFor(b, e2eKernel, inputs, tile)
	owner, others := ownerAndOthers(b, nodes, key)
	// Warm the key on the owner so every benchmark below measures a
	// warm path, not the cold pipeline.
	if state, _, _ := optimizeVia(b, owner, inputs, tile); state != "miss" {
		b.Fatalf("warmup: state %q, want \"miss\"", state)
	}
	return &benchCluster{nodes: nodes, inputs: inputs, tile: tile, key: key, owner: owner, others: others}
}

// BenchmarkClusterWarmLocalHit is the baseline rung: a warm optimize on
// the key's owner, served from the local memory layer through the full
// HTTP handler stack.
func BenchmarkClusterWarmLocalHit(b *testing.B) {
	c := newBenchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state, _, _ := optimizeVia(b, c.owner, c.inputs, c.tile)
		if state != "hit" {
			b.Fatalf("state %q, want \"hit\"", state)
		}
	}
}

// BenchmarkClusterPeerArtifactFetch is the read-through rung in
// isolation: one authenticated artifact fetch from a peer, including
// frame decode and CRC verification. (The public-route equivalent only
// happens once per key per node — the fetch cache-fills — so the rung
// is measured at the protocol level, where it repeats.)
func BenchmarkClusterPeerArtifactFetch(b *testing.B) {
	c := newBenchCluster(b)
	client := cluster.NewClient("e2e-cluster-secret", 20*time.Second)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.FetchArtifact(ctx, c.owner.url, c.key); err != nil {
			b.Fatalf("FetchArtifact: %v", err)
		}
	}
}

// BenchmarkClusterForwardedRequest is the forward rung: a full
// optimize relayed to the owner's internal route (one extra HTTP hop
// on top of the owner's local hit). This is the steady-state price a
// non-owner pays for a cold key before its local cache fills.
func BenchmarkClusterForwardedRequest(b *testing.B) {
	c := newBenchCluster(b)
	client := cluster.NewClient("e2e-cluster-secret", 20*time.Second)
	k, err := d2t2.ParseKernel(e2eKernel)
	if err != nil {
		b.Fatalf("parse kernel: %v", err)
	}
	canon, err := json.Marshal(struct {
		Kernel      string            `json:"kernel"`
		Inputs      map[string]string `json:"inputs"`
		BufferWords int               `json:"bufferWords,omitempty"`
	}{k.String(), c.inputs, d2t2.DenseTileWords(c.tile, c.tile)})
	if err != nil {
		b.Fatalf("marshal canonical request: %v", err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Forward(ctx, c.owner.url, "optimize", canon)
		if err != nil {
			b.Fatalf("Forward: %v", err)
		}
		if res.Status != http.StatusOK {
			b.Fatalf("Forward: status %d: %s", res.Status, res.Body)
		}
	}
}
