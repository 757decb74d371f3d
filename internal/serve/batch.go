package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"d2t2"
)

// maxBatchJobs bounds one batch request. Far above any sane batch and
// far below anything that could wedge the node: every job past the
// cache still runs through the bounded compute pool.
const maxBatchJobs = 64

// ---- delta ingest ----

// deltaRequest appends coordinate entries to a stored tensor. Crds[e]
// is entry e's coordinate tuple, Vals[e] its value; entries must not
// collide with the base tensor or each other. Tile picks the stats
// frame to merge at (default DefaultStatsTile).
type deltaRequest struct {
	Crds [][]int   `json:"crds"`
	Vals []float64 `json:"vals"`
	Tile int       `json:"tile,omitempty"`
}

type deltaResponse struct {
	ID     string `json:"id"` // the combined tensor's content address
	Dims   []int  `json:"dims"`
	NNZ    int    `json:"nnz"`
	Cached bool   `json:"cached"`
	// How much re-collection the merge avoided: only the touched tiles
	// were re-summarized.
	TouchedTiles int `json:"touchedTiles"`
	TotalTiles   int `json:"totalTiles"`
	TouchedMicro int `json:"touchedMicro"`
	TotalMicro   int `json:"totalMicro"`
}

// handleDelta serves POST /v1/tensors/{id}/delta: append a coordinate
// delta to a stored tensor, re-tiling only the touched tiles and
// merging statistics instead of re-collecting (session.DeltaCtx). The
// combined tensor is registered and persisted under its own content
// address, and its merged statistics are already warm for following
// stats/predict/optimize requests at the same frame.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	s.metrics.add("delta_total", 1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		s.metrics.add("delta_errors", 1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("delta exceeds the %d-byte limit", mbe.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("read delta: %w", err))
		return
	}
	var req deltaRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		s.metrics.add("delta_errors", 1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Crds) != len(req.Vals) {
		s.metrics.add("delta_errors", 1)
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("crds holds %d entries, vals %d", len(req.Crds), len(req.Vals)))
		return
	}
	tile := req.Tile
	if tile == 0 {
		tile = s.cfg.DefaultStatsTile
	}
	if tile < 1 {
		s.metrics.add("delta_errors", 1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad tile %d", tile))
		return
	}

	ctx := r.Context()
	t, err := s.tensorByID(ctx, r.PathValue("id"))
	if err != nil {
		s.metrics.add("delta_errors", 1)
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	dims := t.Dims()
	delta := d2t2.NewTensor(dims...)
	for e, crd := range req.Crds {
		if len(crd) != len(dims) {
			s.metrics.add("delta_errors", 1)
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("entry %d has %d coordinates, tensor has order %d", e, len(crd), len(dims)))
			return
		}
		for a, c := range crd {
			if c < 0 || c >= dims[a] {
				s.metrics.add("delta_errors", 1)
				s.writeError(w, http.StatusBadRequest,
					fmt.Errorf("entry %d: coordinate %d out of range on axis %d (dim %d)", e, c, a, dims[a]))
				return
			}
		}
		delta.Set(crd, req.Vals[e])
	}

	var resp deltaResponse
	var jobErr error
	job := func(ctx context.Context) {
		newT, rep, err := s.session.DeltaCtx(ctx, t, delta, tile)
		if err != nil {
			jobErr = err
			return
		}
		id, newT, cached, err := s.registerTensor(ctx, newT)
		if err != nil {
			jobErr = err
			return
		}
		resp = deltaResponse{
			ID:           id,
			Dims:         newT.Dims(),
			NNZ:          newT.NNZ(),
			Cached:       cached,
			TouchedTiles: rep.TouchedTiles,
			TotalTiles:   rep.TotalTiles,
			TouchedMicro: rep.TouchedMicro,
			TotalMicro:   rep.TotalMicro,
		}
	}
	if err := s.runCompute(ctx, job); err != nil {
		s.metrics.add("delta_errors", 1)
		s.writeComputeError(w, err, http.StatusInternalServerError)
		return
	}
	if jobErr != nil {
		// Collisions, duplicate coordinates: the request's fault.
		s.metrics.add("delta_errors", 1)
		s.writeComputeError(w, jobErr, http.StatusUnprocessableEntity)
		return
	}
	s.metrics.add("delta_merges", 1)
	s.writeJSON(w, http.StatusOK, resp)
}

// ---- batch optimize ----

// batchRequest schedules many optimize jobs as one unit. Each job is a
// full optimizeRequest; jobs sharing a tensor share one statistics
// collection.
type batchRequest struct {
	Jobs []optimizeRequest `json:"jobs"`
}

// batchJobResult is one job's outcome. Key is the job's response
// content address (the same key a single /v1/optimize request would
// produce, so the artifacts interoperate); Cache says how the response
// was produced (hit/replica/peer/forwarded/miss); exactly one of
// Response and Error is set.
type batchJobResult struct {
	Key      string          `json:"key"`
	Cache    string          `json:"cache,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

type batchResponse struct {
	Jobs []batchJobResult `json:"jobs"`
}

// batch serves POST /v1/batch and (internal) its /internal/ twin, which
// never forwards again. Every job is canonicalized by optimizeJob, so
// its response key — and its cached artifact — interoperate with
// /v1/optimize. Submitted jobs that collapse onto one key share one
// result. The ladder per distinct key: warm cache, then (public route,
// clustered) a sub-batch forwarded to each key's ring owner, then
// runLocal inside ONE compute-pool slot. A job failure is reported in
// its result slot; it never fails the batch.
func (s *Server) batch(internal bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.add("batch_total", 1)
		var breq batchRequest
		if err := decodeJSON(http.MaxBytesReader(w, r.Body, s.jsonBodyLimit()), &breq); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(breq.Jobs) == 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
			return
		}
		if len(breq.Jobs) > maxBatchJobs {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("batch holds %d jobs, limit is %d", len(breq.Jobs), maxBatchJobs))
			return
		}
		s.metrics.add("batch_jobs_total", int64(len(breq.Jobs)))

		out := make([]batchJobResult, len(breq.Jobs))
		slots := make(map[string][]int) // key -> submitted job indexes
		var distinct []*keyedJob
		for i, req := range breq.Jobs {
			j, err := s.optimizeJob(req)
			if err != nil {
				out[i].Error = err.Error()
				s.metrics.add("batch_job_errors", 1)
				continue
			}
			out[i].Key = j.key
			if _, dup := slots[j.key]; !dup {
				distinct = append(distinct, j)
			}
			slots[j.key] = append(slots[j.key], i)
		}
		// settle lands one distinct job's outcome in every slot that
		// collapsed onto its key, counting successes under counter.
		settle := func(j *keyedJob, res jobResult, cache, counter string) {
			idx := slots[j.key]
			if res.err != nil {
				cache, counter = "", "batch_job_errors"
			}
			s.metrics.add(counter, int64(len(idx)))
			for _, i := range idx {
				out[i].Cache, out[i].Response = cache, res.body
				if res.err != nil {
					out[i].Error = res.err.Error()
				}
			}
		}

		ctx := r.Context()
		var cold []*keyedJob
		for _, j := range distinct {
			if !j.calibrate {
				if body, state, ok := s.cachedResponse(ctx, j.key); ok {
					settle(j, jobResult{body: body}, state, "batch_cache_hits")
					continue
				}
			}
			cold = append(cold, j)
		}

		// Forward rung: cold jobs whose keys another node owns travel to
		// their owners as sub-batches, so each owner's session dedupes the
		// fleet's statistics work. An unreachable owner degrades that group
		// to local compute — latency, never availability.
		local := cold
		if !internal && s.cluster != nil {
			local = nil
			groups := make(map[string][]*keyedJob)
			var owners []string
			for _, j := range cold {
				owner := s.cluster.ring.Owner(j.key)
				if owner == s.cluster.self {
					local = append(local, j)
					continue
				}
				if _, ok := groups[owner]; !ok {
					owners = append(owners, owner)
				}
				groups[owner] = append(groups[owner], j)
			}
			for _, owner := range owners {
				res, ok := s.forwardBatch(ctx, owner, groups[owner])
				if !ok {
					local = append(local, groups[owner]...)
					continue
				}
				for i, j := range groups[owner] {
					settle(j, res[i], "forwarded", "batch_forwarded_jobs")
				}
			}
		}

		if len(local) > 0 {
			var res []jobResult
			if err := s.runCompute(ctx, func(ctx context.Context) { res = s.runLocal(ctx, local) }); err != nil {
				s.writeComputeError(w, err, http.StatusInternalServerError)
				return
			}
			for i, j := range local {
				settle(j, res[i], "miss", "batch_local_jobs")
			}
		}
		s.writeJSON(w, http.StatusOK, batchResponse{Jobs: out})
	}
}

// forwardBatch relays one owner's cold jobs as a sub-batch of their
// canonical requests; the owner derives identical keys and runs (or
// serves) them, and each returned body is cache-filled locally (see
// persist). ok is false when the owner could not be used at all
// (transport failure, bad response shape); then the whole group falls
// back to local compute.
func (s *Server) forwardBatch(ctx context.Context, owner string, group []*keyedJob) ([]jobResult, bool) {
	sub := struct {
		Jobs []json.RawMessage `json:"jobs"`
	}{Jobs: make([]json.RawMessage, len(group))}
	for i, j := range group {
		sub.Jobs[i] = j.canon
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, false
	}
	res, err := s.cluster.client.Forward(ctx, owner, "batch", body)
	if err != nil || res.Status != http.StatusOK {
		return nil, false
	}
	var br batchResponse
	if err := json.Unmarshal(res.Body, &br); err != nil || len(br.Jobs) != len(group) {
		return nil, false
	}
	out := make([]jobResult, len(group))
	for i, j := range group {
		jr := br.Jobs[i]
		if jr.Error != "" || jr.Response == nil {
			out[i].err = fmt.Errorf("owner %s: %s", owner, jr.Error)
			continue
		}
		// The batch envelope compacts each body, which drops the newline
		// marshalBody ended it with; put it back, so the bytes cached here
		// are the owner's exactly.
		body := append(jr.Response[:len(jr.Response):len(jr.Response)], '\n')
		s.persist(j, body, false)
		out[i].body = body
	}
	return out, true
}
