package serve

import (
	"expvar"
	"fmt"
	"time"
)

// counterNames are pre-registered so /debug/vars reports explicit zeros
// for counters that have not fired yet — dashboards and the e2e tests
// can difference them without existence checks.
var counterNames = []string{
	"ingest_total",
	"ingest_errors",
	"ingest_too_large",
	"store_put_errors",
	"tensors_registered",
	"delta_total",
	"delta_merges",
	"delta_errors",
	"batch_total",
	"batch_jobs_total",
	"batch_job_errors",
	"batch_cache_hits",
	"batch_forwarded_jobs",
	"batch_local_jobs",
	"stats_merge_total",
	"artifact_mem_hits",
	"stats_resident_hits",
	"artifact_disk_hits",
	"artifact_misses",
	"stats_collect_total",
	"shape_evals_micro",
	"shape_evals_derived",
	"predictions_computed",
	"optimize_total",
	"optimize_cache_hits",
	"optimize_overbooked",
	"calibration_runs",
	"measure_runs",
	"measure_memo_hits",
	"predict_total",
	"predict_cache_hits",
	"stats_queries_total",
	"bytes_served",
	"http_errors",
	"requests_timeout",
	"requests_cancelled",
	"pool_abandoned_queued",
	"pool_abandoned_running",
	"singleflight_leader",
	"singleflight_shared",
	"singleflight_detached",
	"pool_coalesced",
	"artifact_peer_hits",
	"peer_fetch_misses",
	"peer_fetch_errors",
	"forward_attempts",
	"forward_success",
	"forward_fallback_local",
	"replicate_pushes",
	"replicate_errors",
	"replica_hits",
	"internal_artifact_serves",
	"internal_artifact_stores",
	"internal_requests_total",
	"internal_auth_failures",
	"readyz_unready",
}

// Per-peer counter kinds, indexed in lockstep with peerKindNames. The
// full per-peer name set (peer_<i>_<kind>) is built once at server
// construction — like latencyBucketNames, names handed to expvar are
// never computed per call.
const (
	peerFetchHits = iota
	peerFetchMisses
	peerFetchErrors
	peerForwards
	peerReplicas
	peerKindCount
)

var peerKindNames = [peerKindCount]string{
	"fetch_hits",
	"fetch_misses",
	"fetch_errors",
	"forwards",
	"replicas",
}

// latencyBucketsMs are the upper bounds (inclusive, milliseconds) of the
// optimize-latency histogram; the final bucket is unbounded.
var latencyBucketsMs = []int64{1, 5, 25, 100, 500, 2500}

// latencyBucketNames is the fixed counter-name set of the histogram,
// built once at init and indexed in lockstep with latencyBucketsMs —
// names handed to expvar are never computed per call (countername
// enforces this).
var latencyBucketNames = func() []string {
	names := make([]string, len(latencyBucketsMs))
	for i, b := range latencyBucketsMs {
		names[i] = latencyBucket(b)
	}
	return names
}()

// metrics is a per-server expvar surface. The map is Init'd but never
// expvar.Publish'd under a fixed name: tests start many servers in one
// process and a global Publish of a duplicate name panics. cmd/d2t2d
// publishes its single server's map explicitly.
type metrics struct {
	vars *expvar.Map
	// peerNames[i][kind] is the fixed counter name for peer i — built
	// once by initPeerCounters when the server is clustered, so per-peer
	// accounting indexes a pre-registered name set.
	peerNames [][peerKindCount]string
}

func newMetrics() *metrics {
	m := &metrics{vars: new(expvar.Map).Init()}
	for _, name := range counterNames {
		m.vars.Add(name, 0)
	}
	for _, name := range latencyBucketNames {
		m.vars.Add(name, 0)
	}
	m.vars.Add("optimize_latency_ms_gt_2500", 0)
	return m
}

// latencyBucket formats one histogram counter name. Production code
// goes through latencyBucketNames; this stays exported-to-tests so
// expectations can name buckets without duplicating the format.
func latencyBucket(upperMs int64) string {
	return fmt.Sprintf("optimize_latency_ms_le_%d", upperMs)
}

// initPeerCounters registers the per-peer counter set for n peers.
// Called once from New (before the server takes traffic), so the names
// exist with explicit zeros before any peer call fires. Peer indexes
// follow Config.Peers order.
func (m *metrics) initPeerCounters(n int) {
	m.peerNames = make([][peerKindCount]string, n)
	for i := range m.peerNames {
		for k := 0; k < peerKindCount; k++ {
			m.peerNames[i][k] = fmt.Sprintf("peer_%d_%s", i, peerKindNames[k])
			m.vars.Add(m.peerNames[i][k], 0)
		}
	}
}

func (m *metrics) add(name string, delta int64) { m.vars.Add(name, delta) }

// addPeer bumps one per-peer counter; peer indexes out of the
// configured range (never produced by the ring) are dropped.
func (m *metrics) addPeer(peer, kind int, delta int64) {
	if peer < 0 || peer >= len(m.peerNames) {
		return
	}
	m.vars.Add(m.peerNames[peer][kind], delta)
}

// observeLatency records one optimize duration in the histogram.
// Buckets are cumulative (Prometheus-style): a 3 ms request increments
// le_5, le_25, ... through the unbounded tail's predecessors.
func (m *metrics) observeLatency(d time.Duration) {
	ms := d.Milliseconds()
	hit := false
	for i, b := range latencyBucketsMs {
		if ms <= b {
			m.vars.Add(latencyBucketNames[i], 1)
			hit = true
		}
	}
	if !hit {
		m.vars.Add("optimize_latency_ms_gt_2500", 1)
	}
}

// get returns a counter's current value (0 if never touched); tests
// difference these across requests.
func (m *metrics) get(name string) int64 {
	v := m.vars.Get(name)
	if v == nil {
		return 0
	}
	i, ok := v.(*expvar.Int)
	if !ok {
		return 0
	}
	return i.Value()
}
