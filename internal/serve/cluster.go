package serve

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"d2t2/internal/cluster"
	"d2t2/internal/snapshot"
)

// clusterState is the per-server view of a d2t2d cluster: the
// consistent-hash ring over static membership, the authenticated peer
// client, and the lifetime of the async replication goroutines. nil on
// an unclustered server — every cluster rung checks for that and
// degrades to single-node behavior.
type clusterState struct {
	self        string   // this node's base URL (a ring member)
	peers       []string // the other members, in Config.Peers order
	ring        *cluster.Ring
	client      *cluster.Client
	replication int

	secret string

	// ctx bounds the async replication pushes: it outlives any single
	// request by design (replication is best-effort background work) and
	// is cancelled by Shutdown; wg joins every replication goroutine.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newClusterState wires the ring and peer client from a validated
// config. Membership is self plus every peer; the ring is a pure
// function of that set, so all nodes agree on placement.
func newClusterState(cfg Config) (*clusterState, error) {
	members := append([]string{cfg.SelfURL}, cfg.Peers...)
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	// Replication runs detached from request lifetimes on purpose: a
	// push is useful work even after its triggering request was
	// answered. Lifetime is bounded by Shutdown's cancel+join.
	//d2t2:ignore ctxpropagation replication outlives its triggering request by design; bounded by Shutdown
	ctx, cancel := context.WithCancel(context.Background())
	return &clusterState{
		self:        cfg.SelfURL,
		peers:       append([]string(nil), cfg.Peers...),
		ring:        ring,
		client:      cluster.NewClient(cfg.ClusterSecret, cfg.PeerTimeout),
		replication: cfg.Replication,
		secret:      cfg.ClusterSecret,
		ctx:         ctx,
		cancel:      cancel,
	}, nil
}

// owns reports whether this node is key's ring owner.
func (c *clusterState) owns(key string) bool { return c.ring.Owner(key) == c.self }

// peerIndex maps a member URL to its per-peer counter index
// (Config.Peers order), -1 for self or an unknown member.
func (c *clusterState) peerIndex(member string) int {
	for i, p := range c.peers {
		if p == member {
			return i
		}
	}
	return -1
}

// fetchCandidates lists the peers to ask for key, owner first, then
// the rest of the ring in successor order. Asking beyond the owner
// covers artifacts whose replication push has not landed yet and
// owners that restarted with a cold store; the fan-out is bounded by
// cluster size.
func (c *clusterState) fetchCandidates(key string) []string {
	owner := c.ring.Owner(key)
	out := make([]string, 0, len(c.peers))
	if owner != c.self {
		out = append(out, owner)
	}
	for _, m := range c.ring.Successors(key, len(c.peers)+1) {
		if m != c.self && m != owner {
			out = append(out, m)
		}
	}
	return out
}

// close stops the replication machinery: cancel aborts in-flight
// pushes, the join waits for their goroutines.
func (c *clusterState) close() {
	c.cancel()
	c.wg.Wait()
}

// peerFetch is the owner-peer rung of the artifact ladder: ask key's
// owner (then the remaining ring) for the bytes, CRC-verified by the
// client on receipt. Returns nil when no peer holds the artifact or
// the context died — the caller falls through to recompute.
func (s *Server) peerFetch(ctx context.Context, key string) []byte {
	cl := s.cluster
	for _, peer := range cl.fetchCandidates(key) {
		if ctx.Err() != nil {
			return nil
		}
		b, err := cl.client.FetchArtifact(ctx, peer, key)
		idx := cl.peerIndex(peer)
		switch {
		case err == nil:
			s.metrics.addPeer(idx, perPeerFetchHits, 1)
			return b
		case errors.Is(err, cluster.ErrNotFound):
			s.metrics.add(peerFetchMisses, 1)
			s.metrics.addPeer(idx, perPeerFetchMisses, 1)
		default:
			s.metrics.add(peerFetchErrors, 1)
			s.metrics.addPeer(idx, perPeerFetchErrors, 1)
		}
	}
	return nil
}

// forwardToOwner relays one cold single request to its key's owner,
// so the owner's singleflight coalesces identical cold work fleet-wide,
// and returns the owner's exact bytes (cache-filled locally, see
// persist). Transport failures and owner 5xx retry once; a 4xx from the
// owner — a deterministic domain failure — and exhausted retries both
// return ok=false for local compute, so a dead or degraded owner costs
// latency, never availability.
func (s *Server) forwardToOwner(ctx context.Context, j *keyedJob) (body []byte, ok bool) {
	cl := s.cluster
	owner := cl.ring.Owner(j.key)
	const attempts = 2
	for i := 0; i < attempts && ctx.Err() == nil; i++ {
		s.metrics.add(forwardAttempts, 1)
		res, err := cl.client.Forward(ctx, owner, j.endpoint, j.canon)
		if err != nil {
			continue // transport failure: retry, then local fallback
		}
		if res.Status == http.StatusOK {
			s.metrics.add(forwardSuccess, 1)
			s.metrics.addPeer(cl.peerIndex(owner), perPeerForwards, 1)
			s.persist(j, res.Body, false)
			return res.Body, true
		}
		if res.Status < http.StatusInternalServerError {
			break // owner answered authoritatively with a domain failure
		}
	}
	s.metrics.add(forwardFallbackLocal, 1)
	return nil, false
}

// maybeReplicate pushes one freshly produced artifact toward its ring
// placement: the owner plus the next Replication successors, skipping
// self. Async and best-effort — a failed push only costs a future
// peer-fetch or recompute — with goroutines joined at Shutdown.
func (s *Server) maybeReplicate(key string, artifact []byte) {
	cl := s.cluster
	if cl == nil || cl.replication <= 0 {
		return
	}
	owner := cl.ring.Owner(key)
	targets := make([]string, 0, cl.replication+1)
	if owner != cl.self {
		targets = append(targets, owner)
	}
	for _, m := range cl.ring.Successors(key, cl.replication) {
		if m != cl.self {
			targets = append(targets, m)
		}
	}
	if len(targets) == 0 {
		return
	}
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		for _, peer := range targets {
			if cl.ctx.Err() != nil {
				return
			}
			if err := cl.client.PushArtifact(cl.ctx, peer, key, artifact); err != nil {
				s.metrics.add(replicateErrors, 1)
				continue
			}
			s.metrics.add(replicatePushes, 1)
			s.metrics.addPeer(cl.peerIndex(peer), perPeerReplicas, 1)
		}
	}()
}

// requireClusterAuth gates the internal route set on the shared
// cluster secret (constant-time compare).
func (s *Server) requireClusterAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cl := s.cluster
		if cl == nil {
			http.NotFound(w, r)
			return
		}
		got := r.Header.Get(cluster.SecretHeader)
		if subtle.ConstantTimeCompare([]byte(got), []byte(cl.secret)) != 1 {
			s.metrics.add(internalAuthFailures, 1)
			s.writeError(w, http.StatusForbidden, fmt.Errorf("cluster secret mismatch"))
			return
		}
		s.metrics.add(internalRequestsTotal, 1)
		h(w, r)
	}
}

// handleInternalArtifactGet serves one artifact's raw bytes, framed
// and checksummed, from the LOCAL layers only — a peer's read-through
// must never recurse into another peer fetch, or two nodes missing the
// same key would chase each other.
func (s *Server) handleInternalArtifactGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !IsContentAddress(key) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("malformed content address %q", key))
		return
	}
	b, _, err := s.store.Get(key)
	if err != nil || b == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("artifact %q not held", key))
		return
	}
	s.metrics.add(internalArtifactServes, 1)
	frame := cluster.EncodeFrame(key, b)
	w.Header().Set("Content-Type", "application/octet-stream")
	s.metrics.add(bytesServed, int64(len(frame)))
	w.Write(frame)
}

// handleInternalArtifactPut admits a replicated artifact. The push is
// unsolicited, so receipt is fully verified before the store sees it:
// the frame CRC, the key match against the path, the content-address
// shape, and the snapshot's own section CRCs via a full decode.
func (s *Server) handleInternalArtifactPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !IsContentAddress(key) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("malformed content address %q", key))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("read replica push: %w", err))
		return
	}
	gotKey, payload, err := cluster.DecodeFrame(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if gotKey != key {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("frame names key %q, route names %q", gotKey, key))
		return
	}
	if _, err := snapshot.DecodeBytes(payload); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("replica artifact rejected: %w", err))
		return
	}
	if err := s.store.Put(key, payload); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.metrics.add(internalArtifactStores, 1)
	w.WriteHeader(http.StatusNoContent)
}

// handleInternalPing answers the peer reachability probe.
func (s *Server) handleInternalPing(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": s.cluster.self})
}

// anyPeerReachable reports nil when at least one configured peer
// answers a ping — the "ring formed" half of readiness.
func (c *clusterState) anyPeerReachable(ctx context.Context) error {
	var last error
	for _, peer := range c.peers {
		if err := c.client.Ping(ctx, peer); err == nil {
			return nil
		} else {
			last = err
		}
	}
	return fmt.Errorf("no reachable peer of %d: %w", len(c.peers), last)
}

// OwnerOf reports which cluster member owns key, for operators
// debugging placement and for the multi-node e2e harness. ok is false
// on an unclustered server.
func (s *Server) OwnerOf(key string) (owner string, ok bool) {
	if s.cluster == nil {
		return "", false
	}
	return s.cluster.ring.Owner(key), true
}
