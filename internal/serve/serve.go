package serve

import (
	"bytes"
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2t2"
	"d2t2/internal/buildinfo"
	"d2t2/internal/radix"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

// Config tunes a Server. The zero value is usable: in-memory cache only,
// GOMAXPROCS ingest workers, 30 s request timeout.
type Config struct {
	// CacheDir roots the on-disk artifact cache; "" keeps artifacts in
	// memory only.
	CacheDir string
	// MemCacheBytes bounds all the server keeps in memory (default 64
	// MiB): artifacts, decoded tensors and statistics bundles, and the
	// raw rung share one LRU. Without CacheDir an evicted tensor must be
	// uploaded again.
	MemCacheBytes int64
	// Workers bounds how many requests run compute at once — every
	// CPU-heavy job (ingest parsing, the optimize/predict/stats cold
	// pipelines) goes through one bounded pool of this size, so N
	// concurrent requests queue instead of spawning N pipelines — and
	// also sizes the cold pipeline's worker pool inside each job
	// (default GOMAXPROCS). Cold results are byte-identical at any
	// worker count.
	Workers int
	// RequestTimeout bounds each request end to end: queue wait for a
	// compute slot plus the compute itself (default 30 s). On expiry the
	// request context is cancelled and the cold pipeline stops claiming
	// work at its next item boundary — an abandoned request does not
	// keep burning CPU. Completed sub-steps (a finished statistics
	// collection) still land in the cache for the retry.
	RequestTimeout time.Duration
	// ReadHeaderTimeout bounds reading one request's header block
	// (default 5 s) — the slowloris guard.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading a whole request including its body
	// (default RequestTimeout + 30 s; keep it above RequestTimeout so
	// the handler's deadline, not the connection reaper, decides an
	// accepted request's fate).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing a response (default RequestTimeout +
	// 30 s, above RequestTimeout for the same reason).
	WriteTimeout time.Duration
	// IdleTimeout reaps idle keep-alive connections (default 2 min).
	IdleTimeout time.Duration
	// MaxUploadBytes bounds one tensor upload (default 256 MiB).
	MaxUploadBytes int64
	// DefaultStatsTile is the conservative square tile used when a
	// predict or stats request does not name one (default 128, the
	// paper's sweep midpoint).
	DefaultStatsTile int

	// Peers lists the other d2t2d nodes' base URLs (e.g.
	// "http://10.0.0.2:8421"). Non-empty Peers turns on clustering:
	// the node joins a consistent-hash ring with them, fetches
	// artifacts from key owners before recomputing, forwards cold
	// optimize/predict requests to the owner, and replicates warm
	// artifacts. Empty keeps classic single-node behavior.
	Peers []string
	// SelfURL is this node's own base URL as the peers reach it — its
	// ring identity. Required when Peers is set.
	SelfURL string
	// ClusterSecret authenticates the internal peer routes; every node
	// of one cluster carries the same value. Required when Peers is
	// set.
	ClusterSecret string
	// Replication is how many ring successors (beyond the owner) each
	// warm artifact is pushed to, async and best-effort (default 1;
	// at most len(Peers)).
	Replication int
	// PeerTimeout bounds each single peer call — artifact fetch,
	// forward attempt, replica push, ping (default 5 s).
	PeerTimeout time.Duration
}

// withDefaults fills unset (zero) fields. Negative values are left in
// place for validate to reject — a negative knob is a configuration
// mistake, not a request for the default.
func (c Config) withDefaults() Config {
	if c.MemCacheBytes == 0 {
		c.MemCacheBytes = 64 << 20
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ReadHeaderTimeout == 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout == 0 && c.RequestTimeout > 0 {
		c.ReadTimeout = c.RequestTimeout + 30*time.Second
	}
	if c.WriteTimeout == 0 && c.RequestTimeout > 0 {
		c.WriteTimeout = c.RequestTimeout + 30*time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.DefaultStatsTile == 0 {
		c.DefaultStatsTile = 128
	}
	if c.PeerTimeout == 0 {
		c.PeerTimeout = 5 * time.Second
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	c.SelfURL = strings.TrimRight(c.SelfURL, "/")
	for i, p := range c.Peers {
		c.Peers[i] = strings.TrimRight(p, "/")
	}
	return c
}

// validate rejects configurations that would misbehave at runtime.
// Called by New on the post-default config, so a zero field has
// already taken its default — anything still out of range here was an
// explicit, wrong value.
func (c Config) validate() error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"RequestTimeout", c.RequestTimeout},
		{"ReadHeaderTimeout", c.ReadHeaderTimeout},
		{"ReadTimeout", c.ReadTimeout},
		{"WriteTimeout", c.WriteTimeout},
		{"IdleTimeout", c.IdleTimeout},
		{"PeerTimeout", c.PeerTimeout},
	} {
		if d.v <= 0 {
			return fmt.Errorf("serve: %s must be positive, got %v", d.name, d.v)
		}
	}
	// The connection reaper must not fire before the handler's own
	// deadline decides an accepted request's fate (PR 4's invariant,
	// previously only true by construction of the defaults).
	if c.ReadTimeout <= c.RequestTimeout {
		return fmt.Errorf("serve: ReadTimeout (%v) must exceed RequestTimeout (%v)", c.ReadTimeout, c.RequestTimeout)
	}
	if c.WriteTimeout <= c.RequestTimeout {
		return fmt.Errorf("serve: WriteTimeout (%v) must exceed RequestTimeout (%v)", c.WriteTimeout, c.RequestTimeout)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("serve: Workers must be positive, got %d", c.Workers)
	}
	if c.MemCacheBytes < 0 {
		return fmt.Errorf("serve: MemCacheBytes must be non-negative, got %d", c.MemCacheBytes)
	}
	if c.MaxUploadBytes <= 0 {
		return fmt.Errorf("serve: MaxUploadBytes must be positive, got %d", c.MaxUploadBytes)
	}
	if c.DefaultStatsTile <= 0 {
		return fmt.Errorf("serve: DefaultStatsTile must be positive, got %d", c.DefaultStatsTile)
	}
	if len(c.Peers) == 0 {
		if c.SelfURL != "" {
			return fmt.Errorf("serve: SelfURL set without Peers; clustering needs both")
		}
		return nil
	}
	if c.SelfURL == "" {
		return fmt.Errorf("serve: Peers set without SelfURL; the node needs its own ring identity")
	}
	if c.ClusterSecret == "" {
		return fmt.Errorf("serve: Peers set without ClusterSecret; internal routes must be authenticated")
	}
	if c.Replication < 0 {
		return fmt.Errorf("serve: Replication must be non-negative, got %d", c.Replication)
	}
	if c.Replication > len(c.Peers) {
		return fmt.Errorf("serve: Replication %d exceeds peer count %d; there are not enough distinct successors", c.Replication, len(c.Peers))
	}
	seen := map[string]bool{}
	for _, raw := range append([]string{c.SelfURL}, c.Peers...) {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("serve: cluster member %q is not an http(s) base URL", raw)
		}
		// Self duplicated in Peers, or a peer listed twice: both would
		// double that member's ring share.
		if seen[raw] {
			return fmt.Errorf("serve: cluster member %q listed more than once (is the node in its own -peers?)", raw)
		}
		seen[raw] = true
	}
	return nil
}

// Server is the d2t2d optimizer service. Create one with New, mount
// Handler on an HTTP server (or call ListenAndServe), and stop it with
// Shutdown. All state — the store (artifacts, resident tensors and
// statistics bundles, the raw rung), the statistics session — is
// per-Server, so tests can run many in one process.
type Server struct {
	cfg     Config
	store   *Store
	session *d2t2.Session
	pool    *pool
	flights *flightGroup
	metrics *metrics
	cluster *clusterState // nil when unclustered
	mux     *http.ServeMux

	// draining flips at the top of Shutdown, before in-flight requests
	// finish, so /readyz stops advertising the node while it drains.
	draining atomic.Bool

	// beforeFlight, when set (by tests only), runs in a single-request
	// handler between its warm check and its flight.
	beforeFlight func()
	// inFlight, when set (by tests only), runs in a single-request
	// flight's pool job before the pipeline, with the job's context.
	inFlight func(ctx context.Context)
	// jobStart, when set (by tests only), runs as runLocal's fan-out
	// starts each job, on the job's worker.
	jobStart func(j *keyedJob)

	mu      sync.Mutex
	httpSrv *http.Server
}

// New builds a server from cfg (see Config for defaults). Invalid
// configurations — negative timeouts or sizes, a replication factor
// the peer set cannot satisfy, the node listed in its own peers — are
// rejected here rather than misbehaving at runtime.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	store, err := NewStore(cfg.CacheDir, cfg.MemCacheBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		pool:    newPool(cfg.Workers),
		metrics: newMetrics(),
	}
	if len(cfg.Peers) > 0 {
		s.cluster, err = newClusterState(cfg)
		if err != nil {
			return nil, err
		}
		s.metrics.initPeerCounters(len(cfg.Peers))
	}
	s.flights = newFlightGroup(s.metrics)
	s.session = d2t2.NewSession(&storeCache{s: s})
	s.session.Workers = cfg.Workers
	// The /internal/ twins (internal=true) serve requests a non-owner
	// forwarded: their forward rung is off, so a request hops at most
	// once even if ring views disagree.
	optimize := func(internal bool) http.HandlerFunc {
		return s.timed(single(s, internal, "optimize", optimizeTotal, optimizeCacheHits, s.optimizeJob))
	}
	predict := func(internal bool) http.HandlerFunc {
		return single(s, internal, "predict", predictTotal, predictCacheHits, s.predictJob)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tensors", s.handleIngest)
	mux.HandleFunc("POST /v1/tensors/{id}/delta", s.handleDelta)
	mux.HandleFunc("POST /v1/optimize", optimize(false))
	mux.HandleFunc("POST /v1/predict", predict(false))
	mux.HandleFunc("POST /v1/batch", s.batch(false))
	mux.HandleFunc("GET /v1/tensors/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	if s.cluster != nil {
		mux.HandleFunc("GET /internal/v1/artifact/{key}", s.requireClusterAuth(s.handleInternalArtifactGet))
		mux.HandleFunc("PUT /internal/v1/artifact/{key}", s.requireClusterAuth(s.handleInternalArtifactPut))
		mux.HandleFunc("POST /internal/v1/optimize", s.requireClusterAuth(optimize(true)))
		mux.HandleFunc("POST /internal/v1/predict", s.requireClusterAuth(predict(true)))
		mux.HandleFunc("POST /internal/v1/batch", s.requireClusterAuth(s.batch(true)))
		mux.HandleFunc("GET /internal/v1/ping", s.requireClusterAuth(s.handleInternalPing))
	}
	s.mux = mux
	return s, nil
}

// The response headers d2t2d sets, in canonical form (see
// http.CanonicalHeaderKey) so they are set by direct header-map
// assignment: Header.Set would canonicalize, and allocate, the name on
// every request. Header.Get finds them under any spelling.
const (
	headerVersion = "X-D2t2-Version"
	headerKey     = "X-D2t2-Key"
	headerRisk    = "X-D2t2-Risk"
	headerCache   = "X-D2t2-Cache"
)

// versionValue is every response's X-D2T2-Version value, one slice
// shared by all of them: header values are only read once set. The
// Content-Type and X-D2T2-Cache values are shared the same way.
var (
	versionValue     = []string{buildinfo.Version}
	jsonContentType  = []string{"application/json"}
	cacheStateValues = map[string][]string{
		"hit": {"hit"}, "miss": {"miss"}, "coalesced": {"coalesced"},
		"peer": {"peer"}, "replica": {"replica"}, "forwarded": {"forwarded"},
	}
)

// Handler returns the service's HTTP handler: the route mux wrapped with
// the version header and the per-request deadline, RequestTimeout from
// the request's arrival. The deadline's timer is armed only if the
// request waits on something (see deadlineCtx).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()[headerVersion] = versionValue
		ctx := &deadlineCtx{parent: r.Context(), deadline: time.Now().Add(s.cfg.RequestTimeout)}
		defer ctx.release()
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ListenAndServe runs the service on addr until Shutdown. A clean
// shutdown returns nil. The underlying http.Server carries the
// Config's connection timeouts so a client trickling bytes (slowloris)
// cannot hold a connection open indefinitely.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	err := srv.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the service gracefully: readiness flips to 503 first
// (load balancers stop routing here while in-flight work is still
// finishing), then the HTTP server (when started via ListenAndServe)
// stops accepting and drains in-flight handlers bounded by ctx (an
// inbound replica push still reading its body among them), then
// the ingest pool stops and every worker is joined, then every
// coalescing flight runner is joined (after the pool refuses work, a
// straggling flight terminates promptly with ErrShuttingDown), and
// finally the cluster's replication goroutines are cancelled and
// joined. Requests that race past the drain are refused with 503.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.pool.shutdown()
	s.flights.join()
	if s.cluster != nil {
		s.cluster.close()
	}
	return err
}

// Metric returns a counter's current value — the e2e tests difference
// these to prove the warm path skipped collection.
func (s *Server) Metric(name string) int64 { return s.metrics.get(name) }

// Vars exposes the server's expvar map so a single-server process
// (cmd/d2t2d) can publish it globally.
func (s *Server) Vars() expvar.Var { return s.metrics.vars }

// storeGet reads an artifact through the full ladder — local memory,
// local disk, then (clustered) the key's owner peer and the rest of the
// ring — and counts which layer served it. Peer bytes are CRC-verified
// by the client and cache-filled locally (without re-replication: the
// producing node already drove placement for the key).
func (s *Server) storeGet(ctx context.Context, key string) ([]byte, Source) {
	if b, src := s.localGet(key); b != nil {
		return b, src
	}
	if s.cluster != nil {
		if pb := s.peerFetch(ctx, key); pb != nil {
			s.metrics.add(artifactPeerHits, 1)
			_ = s.store.Put(key, pb)
			return pb, SourcePeer
		}
	}
	s.metrics.add(artifactMisses, 1)
	return nil, SourceNone
}

// localGet is storeGet's local layers: memory, then disk. A miss is
// not counted.
func (s *Server) localGet(key string) ([]byte, Source) {
	b, src, err := s.store.Get(key)
	if err != nil || b == nil {
		return nil, SourceNone
	}
	switch src {
	case SourceMem:
		s.metrics.add(artifactMemHits, 1)
	case SourceDisk:
		s.metrics.add(artifactDiskHits, 1)
	}
	return b, src
}

// storeCache plugs the artifact store into the d2t2 Session as its
// StatsCache: bundles, and the mergeable accumulators delta requests
// reuse (PART sections), ride the same content-addressed artifact
// ladder. StoreStats only runs after an actual collection, so
// stats_collect_total counts real tile-and-collect work — the counter
// the e2e tests difference across warm requests — while merged
// statistics land through StoreMergedStats under stats_merge_total. The
// request context rides through the loads so a miss can try the key's
// owner peer before the session re-collects.
type storeCache struct {
	s *Server
}

// LoadStats serves a bundle resident in the store, else decodes its
// artifact. A bundle is kept beside its bytes from its second load on,
// never when stored: a fresh collection or merge, or a bundle loaded
// once, is often never read again (every delta makes a new version, and
// a request's other bundles may be shared with no later one). A kept
// bundle is noted on ctx's job, which charges it again when the job is
// done with it (runCompute), so what its memos gained is counted.
func (c *storeCache) LoadStats(ctx context.Context, key string) (*stats.Stats, bool) {
	if v, ok := c.s.store.Value(key); ok {
		if st, ok := v.(*stats.Stats); ok {
			c.s.metrics.add(artifactMemHits, 1)
			c.s.metrics.add(statsResidentHits, 1)
			noteBundle(ctx, key, st)
			return st, true
		}
	}
	b, _ := c.s.storeGet(ctx, key)
	if b == nil {
		return nil, false
	}
	a, err := snapshot.DecodeBytes(b)
	if err != nil || a.Stats == nil {
		return nil, false
	}
	c.s.observe(a.Stats)
	if !c.s.store.Seen(key) {
		return a.Stats, true
	}
	v, _ := c.s.store.Keep(key, b, a.Stats, a.Stats.HeapBytes())
	st := v.(*stats.Stats)
	noteBundle(ctx, key, st)
	return st, true
}

// jobBundles lists the kept bundles LoadStats handed to one compute
// job, so runCompute can charge each again at its grown size once the
// job ends.
type jobBundles struct {
	mu      sync.Mutex
	bundles []keptBundle
}

type keptBundle struct {
	key string
	st  *stats.Stats
}

type jobBundlesKey struct{}

// noteBundle records st under key on ctx's job, if ctx carries one.
func noteBundle(ctx context.Context, key string, st *stats.Stats) {
	if jb, ok := ctx.Value(jobBundlesKey{}).(*jobBundles); ok {
		jb.mu.Lock()
		jb.bundles = append(jb.bundles, keptBundle{key, st})
		jb.mu.Unlock()
	}
}

// rekeep charges every noted bundle again at what it holds now. A bundle
// evicted meanwhile stays out: Keep refuses a value-only entry under a
// content address.
func (jb *jobBundles) rekeep(st *Store) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	for _, b := range jb.bundles {
		st.Keep(b.key, nil, b.st, b.st.HeapBytes())
	}
}

// observe installs the observers every bundle the server hands out
// carries: shape_evals_micro and shape_evals_derived count the shapes
// priced on it by source (stats.Stats.ObserveShapeEvals), and
// predictions_computed the predictions its prediction tables compute
// (stats.Stats.ObserveTableRuns; the model's are the only tables kept
// on bundles).
func (s *Server) observe(st *stats.Stats) {
	st.ObserveShapeEvals(s.countShapeEval)
	st.ObserveTableRuns(s.countPrediction)
}

func (s *Server) countShapeEval(derived bool) {
	if derived {
		s.metrics.add(shapeEvalsDerived, 1)
	} else {
		s.metrics.add(shapeEvalsMicro, 1)
	}
}

func (s *Server) countPrediction() { s.metrics.add(predictionsComputed, 1) }

func (c *storeCache) StoreStats(ctx context.Context, key string, st *stats.Stats) {
	c.s.metrics.add(statsCollectTotal, 1)
	c.s.observe(st)
	c.s.putArtifact(key, &snapshot.Artifact{Stats: st}, true)
}

func (c *storeCache) LoadPartial(ctx context.Context, key string) (*stats.Partial, bool) {
	b, _ := c.s.storeGet(ctx, key)
	if b == nil {
		return nil, false
	}
	a, err := snapshot.DecodeBytes(b)
	if err != nil {
		return nil, false
	}
	return a.Partial, a.Partial != nil
}

func (c *storeCache) StorePartial(ctx context.Context, key string, p *stats.Partial) {
	c.s.putArtifact(key, &snapshot.Artifact{Partial: p}, true)
}

func (c *storeCache) StoreMergedStats(ctx context.Context, key string, st *stats.Stats) {
	c.s.metrics.add(statsMergeTotal, 1)
	c.s.observe(st)
	c.s.putArtifact(key, &snapshot.Artifact{Stats: st}, true)
}

// putArtifact persists an artifact under key, best effort: a failed
// persist only costs a future recompute or forward. replicate pushes
// it toward its ring placement and is set only by producers — cache
// fills from a forward must not re-push, or every read would re-fan
// the artifact out.
func (s *Server) putArtifact(key string, a *snapshot.Artifact, replicate bool) {
	b, err := snapshot.EncodeBytes(a)
	if err != nil {
		return
	}
	_ = s.store.Put(key, b)
	if replicate {
		s.maybeReplicate(key, b)
	}
}

// ---- request/response shapes ----

type genSpec struct {
	Label string `json:"label"`
	Scale int    `json:"scale"`
}

type ingestRequest struct {
	Gen *genSpec `json:"gen"`
}

type ingestResponse struct {
	ID     string `json:"id"`
	Dims   []int  `json:"dims"`
	NNZ    int    `json:"nnz"`
	Cached bool   `json:"cached"`
}

type optimizeRequest struct {
	// Kernel is tensor index notation, e.g.
	// "C(i,j) = A(i,k) * B(k,j) | order: i,k,j".
	Kernel string `json:"kernel"`
	// Inputs maps operand names to ingested tensor content addresses.
	Inputs map[string]string `json:"inputs"`
	// Tile sizes the buffer as a dense square tile of this side when
	// BufferWords is zero (default 128).
	Tile         int  `json:"tile,omitempty"`
	BufferWords  int  `json:"bufferWords,omitempty"`
	Analytic     bool `json:"analytic,omitempty"`
	DisableCorrs bool `json:"disableCorrs,omitempty"`
	SkipResize   bool `json:"skipResize,omitempty"`
	// Measure additionally executes the plan and reports exact traffic.
	Measure bool `json:"measure,omitempty"`
	// OverflowTarget enables risk-aware overbooking (see DESIGN.md §18):
	// the acceptable predicted tile-overflow probability, in [0, 1).
	// Zero (or absent) keeps the conservative pipeline and — via
	// omitempty — the exact canonical bytes and response key previous
	// releases produced, so risk points never alias conservative ones.
	OverflowTarget float64 `json:"overflow_target,omitempty"`
	// Calibrate additionally executes the chosen plan and folds the
	// measured-vs-predicted residual into the server session's
	// calibration store. Calibrated responses are stateful (the residual
	// evolves run over run) so they bypass the response cache entirely.
	Calibrate bool `json:"calibrate,omitempty"`
}

// riskResponse mirrors the plan's RiskSummary on the wire; present only
// for overbooked or calibrated requests (omitempty keeps conservative
// response bodies byte-identical to previous releases).
type riskResponse struct {
	OverflowTarget        float64  `json:"overflowTarget"`
	PercentileTile        int      `json:"percentileTile"`
	PredictedOverflowRate float64  `json:"predictedOverflowRate"`
	BufferUtilization     float64  `json:"bufferUtilization"`
	MeasuredOverflowRate  *float64 `json:"measuredOverflowRate,omitempty"`
	CalibrationResidual   *float64 `json:"calibrationResidual,omitempty"`
	CalibrationBias       *float64 `json:"calibrationBias,omitempty"`
}

type optimizeResponse struct {
	Kernel      string         `json:"kernel"`
	Config      map[string]int `json:"config"`
	BaseTile    int            `json:"baseTile"`
	RF          float64        `json:"rf"`
	TileFactor  int            `json:"tileFactor"`
	PredictedMB float64        `json:"predictedMB"`
	MeasuredMB  *float64       `json:"measuredMB,omitempty"`
	Risk        *riskResponse  `json:"risk,omitempty"`
}

type predictRequest struct {
	Kernel    string            `json:"kernel"`
	Inputs    map[string]string `json:"inputs"`
	Config    map[string]int    `json:"config"`
	StatsTile int               `json:"statsTile,omitempty"`
	// OverflowTarget keys risk-separated predictions (a nonzero value
	// gets its own response key and X-D2T2-Risk header, never aliasing
	// the conservative point); Calibrate applies the session's learned
	// residual bias for the kernel's workload class to the prediction —
	// stateful, so calibrated predicts bypass the response cache.
	OverflowTarget float64 `json:"overflow_target,omitempty"`
	Calibrate      bool    `json:"calibrate,omitempty"`
}

type predictResponse struct {
	PredictedMB float64 `json:"predictedMB"`
	// CalibrationBias reports the workload-class bias applied when the
	// request set calibrate (absent otherwise).
	CalibrationBias *float64 `json:"calibrationBias,omitempty"`
}

type statsResponse struct {
	ID        string    `json:"id"`
	Tile      int       `json:"tile"`
	SizeTile  float64   `json:"sizeTile"`
	MaxTile   int       `json:"maxTile"`
	NumTiles  int       `json:"numTiles"`
	PrTileIdx []float64 `json:"prTileIdx"`
	ProbIndex []float64 `json:"probIndex"`
	CorrSums  []float64 `json:"corrSums"`
}

// ---- handlers ----

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.add(ingestTotal, 1)
	// Buffer the upload on the handler goroutine before hand-off: a
	// worker must never touch the request (net/http forbids reads after
	// ServeHTTP returns, so a job abandoned at the deadline would race
	// the exiting handler). JSON gen specs are tiny; raw tensor bodies
	// are bounded by MaxUploadBytes. The read itself is bounded by the
	// server's ReadTimeout, so a slow-trickling client cannot pin the
	// handler forever.
	asJSON := isJSONContentType(r.Header.Get("Content-Type"))
	limit := s.cfg.MaxUploadBytes
	if asJSON {
		limit = s.jsonBodyLimit()
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		s.metrics.add(ingestErrors, 1)
		// An over-limit body is the client's size problem, not a malformed
		// request: report 413 with the limit, distinctly counted, so
		// operators can tell "uploads too big" from "uploads broken".
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.add(ingestTooLarge, 1)
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds the %d-byte limit", mbe.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("read upload: %w", err))
		return
	}
	var resp ingestResponse
	var jobErr error
	job := func(ctx context.Context) { resp, jobErr = s.ingest(ctx, asJSON, body) }
	if err := s.runCompute(r.Context(), job); err != nil {
		// Abandoned while queued (never ran) or at the deadline after
		// hand-off — in the latter case the worker stops the parse at its
		// next piece, or finishes a job past the parse on its own (the
		// artifact lands in the cache for a retry), and resp/jobErr must
		// not be read.
		s.metrics.add(ingestErrors, 1)
		s.writeComputeError(w, err, http.StatusInternalServerError)
		return
	}
	if jobErr != nil {
		s.metrics.add(ingestErrors, 1)
		if errors.Is(jobErr, errOverBudget) {
			s.metrics.add(ingestTooLarge, 1)
		}
		s.writeComputeError(w, jobErr, http.StatusBadRequest)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ingest parses one buffered upload (raw .mtx/.tns bytes, or a JSON
// internal/gen spec), registers it under its content address, and
// persists the tensor artifact (replicating it toward its ring
// placement when clustered, so other nodes can resolve the content
// address without a peer round-trip at optimize time). Runs on a pool
// worker and must not touch the originating request — ctx is the
// request's context: the parse's fan-out stops at its next piece once
// it is done, and the cache ladder carries it.
func (s *Server) ingest(ctx context.Context, asJSON bool, body []byte) (ingestResponse, error) {
	t, err := parseUpload(ctx, asJSON, body, s.cfg.Workers)
	if err != nil {
		return ingestResponse{}, err
	}
	id, t, cached, err := s.registerTensor(ctx, t)
	if err != nil {
		return ingestResponse{}, err
	}
	return ingestResponse{ID: id, Dims: t.Dims(), NNZ: t.NNZ(), Cached: cached}, nil
}

// parseUpload builds the Normalized tensor an upload describes, on up
// to workers goroutines under ctx. Its slices hold exactly its entries,
// since a resident tensor is charged by capacity: the parse joins its
// pieces into exact-sized slices, and a generated tensor, grown by
// append, is copied once.
func parseUpload(ctx context.Context, asJSON bool, body []byte, workers int) (*d2t2.Tensor, error) {
	var t *d2t2.Tensor
	var err error
	if asJSON {
		var req ingestRequest
		if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
			return nil, err
		}
		if req.Gen == nil {
			return nil, fmt.Errorf("JSON ingest requires a \"gen\" spec")
		}
		t, err = d2t2.Dataset(req.Gen.Label, req.Gen.Scale)
	} else {
		t, err = d2t2.FromBytesCtx(ctx, body, workers)
	}
	if err != nil {
		return nil, err
	}
	// The statistics key the tensor's coordinate grid: a tensor whose grid
	// has no 64-bit keys is a bad upload, not a resident that fails each
	// optimize.
	if _, err := radix.NewCodec(t.Dims()); err != nil {
		return nil, fmt.Errorf("%v tensor: %w", t.Dims(), err)
	}
	if asJSON {
		t.Normalize()
		t = t.Clone()
	}
	return t, nil
}

// errOverBudget refuses a tensor a memory-only server cannot keep (see
// Store.Keep): it would be unknown before any request could use it.
var errOverBudget = errors.New("tensor exceeds the memory budget")

// registerTensor registers a normalized tensor under its content address
// and persists the tensor artifact so later process lives (and, when
// clustered, peers) can resolve the address. Returns the canonical
// registered tensor — the first one kept in the store, so a content
// address names one resident tensor — and whether the content was
// already known. The ID and the stored artifact come from one encode of
// the tensor — for a delta version, the encode DeltaCtx made when it
// hashed it. A failed store write is counted and skips replication:
// pushing an artifact the local node could not durably hold would
// advertise state it cannot back.
func (s *Server) registerTensor(ctx context.Context, t *d2t2.Tensor) (string, *d2t2.Tensor, bool, error) {
	id, artifact, err := s.session.TensorArtifact(t)
	if err != nil {
		return "", nil, false, err
	}
	if v, ok := s.store.Value(id); ok {
		return id, v.(*d2t2.Tensor), true, nil
	}
	b, _ := s.storeGet(ctx, id)
	size := t.COO().HeapBytes()
	kept, ok := s.keepTensor(id, artifact, t, size)
	if !ok && s.cfg.CacheDir == "" {
		return "", nil, false, fmt.Errorf("%w: a %d-byte artifact and %d decoded bytes, budget %d",
			errOverBudget, len(artifact), size, s.cfg.MemCacheBytes)
	}
	if b == nil {
		if perr := s.store.Put(id, artifact); perr != nil {
			s.metrics.add(storePutErrors, 1)
		} else {
			s.maybeReplicate(id, artifact)
		}
	}
	return id, kept, b != nil, nil
}

// keepTensor keeps t beside its artifact bytes, charged at size, and
// returns the tensor resident under id (t if not kept) and whether kept.
func (s *Server) keepTensor(id string, artifact []byte, t *d2t2.Tensor, size int64) (*d2t2.Tensor, bool) {
	v, ok := s.store.Keep(id, artifact, t, size)
	if ok && v == t {
		s.metrics.add(tensorsRegistered, 1)
	}
	return v.(*d2t2.Tensor), ok
}

// jsonBodyLimit bounds a structured (JSON) request body: 1 MiB — far
// above any real request — further clamped to MaxUploadBytes when the
// operator set the global upload bound even lower, so no body of any
// content type can exceed the configured ceiling.
func (s *Server) jsonBodyLimit() int64 {
	const structuredLimit = 1 << 20
	if s.cfg.MaxUploadBytes < structuredLimit {
		return s.cfg.MaxUploadBytes
	}
	return structuredLimit
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.add(statsQueriesTotal, 1)
	id := r.PathValue("id")
	tile := s.cfg.DefaultStatsTile
	if q := r.URL.Query().Get("tile"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad tile %q", q))
			return
		}
		tile = v
	}
	ctx := r.Context()
	t, err := s.tensorByID(ctx, id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	var sum *d2t2.StatsSummary
	var jobErr error
	job := func(ctx context.Context) { sum, jobErr = s.session.StatsCtx(ctx, t, tile) }
	if err := s.runCompute(ctx, job); err != nil {
		s.writeComputeError(w, err, http.StatusInternalServerError)
		return
	}
	if jobErr != nil {
		s.writeComputeError(w, jobErr, http.StatusUnprocessableEntity)
		return
	}
	s.writeJSON(w, http.StatusOK, statsResponse{
		ID:        id,
		Tile:      tile,
		SizeTile:  sum.SizeTile,
		MaxTile:   sum.MaxTile,
		NumTiles:  sum.NumTiles,
		PrTileIdx: sum.PrTileIdx,
		ProbIndex: sum.ProbIndex,
		CorrSums:  sum.CorrSums,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        buildinfo.Version,
		"resident_bytes": s.store.MemBytes(),
	})
}

// handleReadyz is the readiness probe, distinct from /healthz on
// purpose: /healthz answers "is the process alive" unconditionally,
// while /readyz answers "should a load balancer route new work here" —
// false while draining, when the compute pool stopped accepting, when
// the artifact store's write path is broken, or (clustered) when no
// configured peer is reachable.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.readiness(r.Context()); err != nil {
		s.metrics.add(readyzUnready, 1)
		// Unreadiness is a routing signal, not an error — keep it out of
		// http_errors so drains don't light up error dashboards.
		s.writeErrorStatus(w, http.StatusServiceUnavailable, err, false)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// readiness reports why the node should not receive new work, nil when
// it should.
func (s *Server) readiness(ctx context.Context) error {
	if s.draining.Load() {
		return fmt.Errorf("serve: draining")
	}
	if !s.pool.accepting() {
		return fmt.Errorf("serve: compute pool not accepting work")
	}
	if err := s.store.Writable(); err != nil {
		return err
	}
	if s.cluster != nil {
		if err := s.cluster.anyPeerReachable(ctx); err != nil {
			return fmt.Errorf("serve: ring not formed: %w", err)
		}
	}
	return nil
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body := fmt.Sprintf("{\"version\": %q, \"d2t2d\": %s}\n", buildinfo.Version, s.metrics.vars.String())
	s.metrics.add(bytesServed, int64(len(body)))
	fmt.Fprint(w, body)
}

// ---- plumbing ----

// riskHeader renders the X-D2T2-Risk header value for a request's risk
// knobs, "" when the request is purely conservative. Derived from the
// request, not the computation, so all cache states agree.
func riskHeader(target float64, calibrate bool) string {
	if target <= 0 && !calibrate {
		return ""
	}
	h := fmt.Sprintf("target=%g", target)
	if calibrate {
		h += "; calibrate"
	}
	return h
}

// riskOf maps a plan's risk summary onto the wire shape (nil for
// conservative plans, keeping their response bodies byte-identical).
func riskOf(plan *d2t2.Plan) *riskResponse {
	rk := plan.Risk
	if rk == nil {
		return nil
	}
	resp := &riskResponse{
		OverflowTarget:        rk.OverflowTarget,
		PercentileTile:        rk.PercentileTile,
		PredictedOverflowRate: rk.PredictedOverflowRate,
		BufferUtilization:     rk.BufferUtilization,
	}
	if c := rk.Calibration; c != nil {
		resp.CalibrationResidual = &c.Residual
		resp.CalibrationBias = &c.BiasAfter
		resp.MeasuredOverflowRate = &c.MeasuredOverflowRate
	}
	return resp
}

// writeBody serves one JSON body with its cache-status header; every
// cache state serves byte-identical bodies, only the header differs.
func (s *Server) writeBody(w http.ResponseWriter, cache string, body []byte) {
	v, ok := cacheStateValues[cache]
	if !ok {
		v = []string{cache}
	}
	w.Header()[headerCache] = v
	s.writeBytes(w, http.StatusOK, body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeBytes(w, status, body)
}

func (s *Server) writeBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	s.metrics.add(bytesServed, int64(len(body)))
	w.Write(body)
}

// statusClientClosedRequest is nginx's conventional status for "the
// client went away before the response was ready". No RFC status fits,
// and the client will never read it — it exists for logs and counters.
const statusClientClosedRequest = 499

// runCompute submits a CPU-bound job to the bounded pool and accounts
// the two abandonment modes the pool distinguishes: expired while still
// queued (the job never ran) vs. expired after a worker took it (the
// worker winds the job down on its own ctx check; its outputs must not
// be read). The job runs under ctx carrying its bundle list: when it
// ends, abandoned or not, every statistics bundle it loaded is charged
// again at what its memos hold.
func (s *Server) runCompute(ctx context.Context, job func(ctx context.Context)) error {
	jb := &jobBundles{}
	ctx = context.WithValue(ctx, jobBundlesKey{}, jb)
	started, err := s.pool.run(ctx, func() {
		job(ctx)
		jb.rekeep(s.store)
	})
	if err != nil && !errors.Is(err, ErrShuttingDown) {
		if started {
			s.metrics.add(poolAbandonedRunning, 1)
		} else {
			s.metrics.add(poolAbandonedQueued, 1)
		}
	}
	return err
}

// pipelineError marks a cold-pipeline domain failure (bad kernel,
// unresolvable shapes) as distinct from infrastructure failures, so a
// flight can fan one failure out to every coalesced participant and the
// handler still maps it to 422 rather than 500.
type pipelineError struct{ err error }

func (e *pipelineError) Error() string { return e.err.Error() }
func (e *pipelineError) Unwrap() error { return e.err }

// writeFlightError maps a coalesced compute failure: pipeline domain
// errors are the request's fault (422), everything else — the caller's
// own dead context, pool shutdown, a marshal failure — goes through the
// compute-error mapping (499/504/503/500).
func (s *Server) writeFlightError(w http.ResponseWriter, err error) {
	var perr *pipelineError
	if errors.As(err, &perr) {
		s.writeComputeError(w, perr.err, http.StatusUnprocessableEntity)
		return
	}
	s.writeComputeError(w, err, http.StatusInternalServerError)
}

// writeComputeError maps a compute-path failure to a response. Context
// errors get dedicated accounting: a deadline expiry is the server's
// fault (504, counted in http_errors and requests_timeout), while a
// client disconnect is nobody's error — it increments only
// requests_cancelled and reports 499 without touching http_errors, so
// error dashboards are not polluted by clients hanging up. Pool
// shutdown maps to 503 (load-shed, retry elsewhere); anything else
// falls through to the given status.
func (s *Server) writeComputeError(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, context.Canceled):
		s.metrics.add(requestsCancelled, 1)
		s.writeErrorStatus(w, statusClientClosedRequest, err, false)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.add(requestsTimeout, 1)
		s.writeErrorStatus(w, http.StatusGatewayTimeout, err, true)
	case errors.Is(err, ErrShuttingDown):
		s.writeErrorStatus(w, http.StatusServiceUnavailable, err, true)
	case errors.Is(err, errOverBudget):
		s.writeErrorStatus(w, http.StatusRequestEntityTooLarge, err, true)
	default:
		s.writeErrorStatus(w, fallback, err, true)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeErrorStatus(w, status, err, true)
}

func (s *Server) writeErrorStatus(w http.ResponseWriter, status int, err error, countErr bool) {
	if countErr {
		s.metrics.add(httpErrors, 1)
	}
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// tensorByID returns the tensor registered under a content address:
// the one resident in the store (a raw-rung value under a request body
// is no tensor), else its artifact read through storeGet's ladder — an
// ingest persisted by a previous run of the daemon or evicted from
// memory, or, through the peer rung, an ingest that landed on another
// cluster node — decoded and kept under the address its payload hashes
// to. An artifact holding another tensor than the address names is
// refused. Without a disk layer or a peer holding it, an evicted tensor
// is unknown.
func (s *Server) tensorByID(ctx context.Context, id string) (*d2t2.Tensor, error) {
	v, _ := s.store.Value(id)
	if t, ok := v.(*d2t2.Tensor); ok {
		return t, nil
	}
	b, _ := s.storeGet(ctx, id)
	if b == nil {
		return nil, fmt.Errorf("unknown tensor %q: never uploaded here, or evicted from memory; upload it again", id)
	}
	c, got, err := snapshot.DecodeTensor(b)
	if err != nil {
		return nil, fmt.Errorf("tensor artifact %q: %w", id, err)
	}
	if got != id {
		return nil, fmt.Errorf("tensor artifact %q holds tensor %q", id, got)
	}
	t, _ := s.keepTensor(id, b, d2t2.FromCOO(c, id), c.HeapBytes())
	return t, nil
}

// isJSONContentType reports whether a Content-Type header names a JSON
// body, using real media-type parsing so parameterized ("application/json;
// charset=utf-8"), oddly-cased ("Application/JSON") and structured-suffix
// ("application/problem+json") variants all classify correctly. A missing
// or malformed header is not JSON — the ingest path then treats the body
// as the binary stream format.
func isJSONContentType(ct string) bool {
	if ct == "" {
		return false
	}
	mediaType, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mediaType == "application/json" || strings.HasSuffix(mediaType, "+json")
}

func maxOrder(orders map[string]int) int {
	max := 2
	for _, n := range orders {
		if n > max {
			max = n
		}
	}
	return max
}

// denseSquareWords sizes a buffer for a dense square tile of the given
// side and order, like the CLI's -tile flag.
func denseSquareWords(tile, order int) int {
	dims := make([]int, order)
	for i := range dims {
		dims[i] = tile
	}
	return d2t2.DenseTileWords(dims...)
}
