package serve

import (
	"expvar"
	"fmt"
	"time"
)

// counter is one of d2t2d's pre-registered counters. Call sites name
// counters by constant, so the compiler rejects a name computed per
// call, and /debug/vars reports explicit zeros for counters that have
// not fired yet — dashboards and the e2e tests can difference them
// without existence checks.
type counter int

const (
	ingestTotal counter = iota
	ingestErrors
	ingestTooLarge
	storePutErrors
	tensorsRegistered
	deltaTotal
	deltaMerges
	deltaErrors
	batchTotal
	batchJobsTotal
	batchJobErrors
	batchCacheHits
	batchForwardedJobs
	batchLocalJobs
	statsMergeTotal
	artifactMemHits
	statsResidentHits
	artifactDiskHits
	artifactMisses
	statsCollectTotal
	shapeEvalsMicro
	shapeEvalsDerived
	predictionsComputed
	optimizeTotal
	optimizeCacheHits
	optimizeOverbooked
	calibrationRuns
	measureRuns
	measureMemoHits
	predictTotal
	predictCacheHits
	statsQueriesTotal
	bytesServed
	httpErrors
	requestsTimeout
	requestsCancelled
	poolAbandonedQueued
	poolAbandonedRunning
	singleflightLeader
	singleflightShared
	singleflightDetached
	poolCoalesced
	artifactPeerHits
	peerFetchMisses
	peerFetchErrors
	forwardAttempts
	forwardSuccess
	forwardFallbackLocal
	replicatePushes
	replicateErrors
	replicaHits
	internalArtifactServes
	internalArtifactStores
	internalRequestsTotal
	internalAuthFailures
	readyzUnready
	numCounters
)

// counterNames are the counters' expvar names. The literal is keyed, so
// the compiler rejects a duplicate index; TestCounterNames rejects a
// missing, duplicate or non-snake_case name.
var counterNames = [numCounters]string{
	ingestTotal:            "ingest_total",
	ingestErrors:           "ingest_errors",
	ingestTooLarge:         "ingest_too_large",
	storePutErrors:         "store_put_errors",
	tensorsRegistered:      "tensors_registered",
	deltaTotal:             "delta_total",
	deltaMerges:            "delta_merges",
	deltaErrors:            "delta_errors",
	batchTotal:             "batch_total",
	batchJobsTotal:         "batch_jobs_total",
	batchJobErrors:         "batch_job_errors",
	batchCacheHits:         "batch_cache_hits",
	batchForwardedJobs:     "batch_forwarded_jobs",
	batchLocalJobs:         "batch_local_jobs",
	statsMergeTotal:        "stats_merge_total",
	artifactMemHits:        "artifact_mem_hits",
	statsResidentHits:      "stats_resident_hits",
	artifactDiskHits:       "artifact_disk_hits",
	artifactMisses:         "artifact_misses",
	statsCollectTotal:      "stats_collect_total",
	shapeEvalsMicro:        "shape_evals_micro",
	shapeEvalsDerived:      "shape_evals_derived",
	predictionsComputed:    "predictions_computed",
	optimizeTotal:          "optimize_total",
	optimizeCacheHits:      "optimize_cache_hits",
	optimizeOverbooked:     "optimize_overbooked",
	calibrationRuns:        "calibration_runs",
	measureRuns:            "measure_runs",
	measureMemoHits:        "measure_memo_hits",
	predictTotal:           "predict_total",
	predictCacheHits:       "predict_cache_hits",
	statsQueriesTotal:      "stats_queries_total",
	bytesServed:            "bytes_served",
	httpErrors:             "http_errors",
	requestsTimeout:        "requests_timeout",
	requestsCancelled:      "requests_cancelled",
	poolAbandonedQueued:    "pool_abandoned_queued",
	poolAbandonedRunning:   "pool_abandoned_running",
	singleflightLeader:     "singleflight_leader",
	singleflightShared:     "singleflight_shared",
	singleflightDetached:   "singleflight_detached",
	poolCoalesced:          "pool_coalesced",
	artifactPeerHits:       "artifact_peer_hits",
	peerFetchMisses:        "peer_fetch_misses",
	peerFetchErrors:        "peer_fetch_errors",
	forwardAttempts:        "forward_attempts",
	forwardSuccess:         "forward_success",
	forwardFallbackLocal:   "forward_fallback_local",
	replicatePushes:        "replicate_pushes",
	replicateErrors:        "replicate_errors",
	replicaHits:            "replica_hits",
	internalArtifactServes: "internal_artifact_serves",
	internalArtifactStores: "internal_artifact_stores",
	internalRequestsTotal:  "internal_requests_total",
	internalAuthFailures:   "internal_auth_failures",
	readyzUnready:          "readyz_unready",
}

// peerKind is one per-peer counter; peer i's is named
// peer_<i>_<peerKindNames[kind]>.
type peerKind int

const (
	perPeerFetchHits peerKind = iota
	perPeerFetchMisses
	perPeerFetchErrors
	perPeerForwards
	perPeerReplicas
	numPeerKinds
)

var peerKindNames = [numPeerKinds]string{
	perPeerFetchHits:   "fetch_hits",
	perPeerFetchMisses: "fetch_misses",
	perPeerFetchErrors: "fetch_errors",
	perPeerForwards:    "forwards",
	perPeerReplicas:    "replicas",
}

// latencyBucketsMs are the upper bounds (inclusive, milliseconds) of the
// optimize-latency histogram; a final bucket counts what exceeds them.
var latencyBucketsMs = [...]int64{1, 5, 25, 100, 500, 2500}

// latencyNames are the histogram's counter names, in bucket order.
var latencyNames = [len(latencyBucketsMs) + 1]string{
	"optimize_latency_ms_le_1",
	"optimize_latency_ms_le_5",
	"optimize_latency_ms_le_25",
	"optimize_latency_ms_le_100",
	"optimize_latency_ms_le_500",
	"optimize_latency_ms_le_2500",
	"optimize_latency_ms_gt_2500",
}

// metrics is a per-server expvar surface: one expvar.Int per counter,
// latency bucket and (peer, kind), each registered once in vars. The
// map is Init'd but never expvar.Publish'd under a fixed name: tests
// start many servers in one process and a global Publish of a duplicate
// name panics. cmd/d2t2d publishes its single server's map explicitly.
type metrics struct {
	vars     *expvar.Map
	counters [numCounters]expvar.Int
	latency  [len(latencyNames)]expvar.Int
	peers    [][numPeerKinds]expvar.Int
}

func newMetrics() *metrics {
	m := &metrics{vars: new(expvar.Map).Init()}
	for c := range m.counters {
		m.vars.Set(counterNames[c], &m.counters[c])
	}
	for i := range m.latency {
		m.vars.Set(latencyNames[i], &m.latency[i])
	}
	return m
}

// initPeerCounters registers the per-peer counter set for n peers.
// Called once from New (before the server takes traffic), so the names
// exist with explicit zeros before any peer call fires. Peer indexes
// follow Config.Peers order.
func (m *metrics) initPeerCounters(n int) {
	m.peers = make([][numPeerKinds]expvar.Int, n)
	for i := range m.peers {
		for k := range m.peers[i] {
			m.vars.Set(fmt.Sprintf("peer_%d_%s", i, peerKindNames[k]), &m.peers[i][k])
		}
	}
}

func (m *metrics) add(c counter, delta int64) { m.counters[c].Add(delta) }

// addPeer bumps one per-peer counter; peer indexes out of the
// configured range (never produced by the ring) are dropped.
func (m *metrics) addPeer(peer int, kind peerKind, delta int64) {
	if peer < 0 || peer >= len(m.peers) {
		return
	}
	m.peers[peer][kind].Add(delta)
}

// observeLatency records one optimize duration in the histogram.
// Buckets are cumulative (Prometheus-style): a 3 ms request increments
// le_5, le_25, ... through le_2500; only a request above every bound
// increments gt_2500.
func (m *metrics) observeLatency(d time.Duration) {
	ms := d.Milliseconds()
	hit := false
	for i, b := range latencyBucketsMs {
		if ms <= b {
			m.latency[i].Add(1)
			hit = true
		}
	}
	if !hit {
		m.latency[len(latencyBucketsMs)].Add(1)
	}
}

// get returns a counter's current value by name (0 if the name is not
// registered); tests difference these across requests.
func (m *metrics) get(name string) int64 {
	if i, ok := m.vars.Get(name).(*expvar.Int); ok {
		return i.Value()
	}
	return 0
}
