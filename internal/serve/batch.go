package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"d2t2"
	"d2t2/internal/par"
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
	if err := json.Unmarshal(body, &req); err != nil {
		s.metrics.add("delta_errors", 1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
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
	job := func() {
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

// batchJob is one distinct unit of batch work: a canonicalized optimize
// request plus the indexes of every submitted job that collapsed onto
// its response key.
type batchJob struct {
	req     optimizeRequest
	k       *d2t2.Kernel
	key     string
	results []int
	inputs  d2t2.Inputs
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batch(w, r, false)
}

// handleInternalBatch serves a forwarded sub-batch on the jobs' ring
// owner; like the other internal routes it never forwards again.
func (s *Server) handleInternalBatch(w http.ResponseWriter, r *http.Request) {
	s.batch(w, r, true)
}

// batch is the shared batch pipeline. Every job is canonicalized
// exactly like a single optimize request, so its response key — and
// its cached artifact — interoperate with /v1/optimize. The ladder per
// distinct key: warm cache, then (public route, clustered) a sub-batch
// forwarded to each key's ring owner, then local compute. All local
// jobs run inside ONE compute-pool slot: statistics bundles are
// resolved sequentially first — once per distinct bundle, however many
// jobs share it — and the per-job searches then fan out on the pool's
// width through internal/par. A job failure is reported in its result
// slot; it never fails the batch.
func (s *Server) batch(w http.ResponseWriter, r *http.Request, internal bool) {
	s.metrics.add("batch_total", 1)
	var breq batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.jsonBodyLimit())).Decode(&breq); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
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
	jobs := make(map[string]*batchJob)
	var order []string
	for i, jr := range breq.Jobs {
		k, err := d2t2.ParseKernel(jr.Kernel)
		if err != nil {
			out[i].Error = err.Error()
			s.metrics.add("batch_job_errors", 1)
			continue
		}
		if jr.OverflowTarget < 0 || jr.OverflowTarget >= 1 {
			out[i].Error = fmt.Sprintf("overflow_target %v outside [0, 1)", jr.OverflowTarget)
			s.metrics.add("batch_job_errors", 1)
			continue
		}
		if jr.BufferWords <= 0 {
			tile := jr.Tile
			if tile <= 0 {
				tile = s.cfg.DefaultStatsTile
			}
			jr.BufferWords = denseSquareWords(tile, maxOrder(k.InputOrders()))
		}
		jr.Tile = 0
		jr.Kernel = k.String()
		if jr.OverflowTarget > 0 {
			s.metrics.add("optimize_overbooked", 1)
		}
		key, _, err := responseKey("optimize", jr)
		if err != nil {
			out[i].Error = err.Error()
			s.metrics.add("batch_job_errors", 1)
			continue
		}
		out[i].Key = key
		if j, ok := jobs[key]; ok {
			j.results = append(j.results, i)
			continue
		}
		jobs[key] = &batchJob{req: jr, k: k, key: key, results: []int{i}}
		order = append(order, key)
	}

	ctx := r.Context()

	// Warm rung: a key whose response artifact is already held (locally
	// or on a peer) never reaches compute. Calibrated jobs are stateful
	// and always recompute.
	var cold []*batchJob
	for _, key := range order {
		j := jobs[key]
		if j.req.Calibrate {
			cold = append(cold, j)
			continue
		}
		if b, src := s.storeGet(ctx, key); b != nil {
			if body, ok := decodeResponseArtifact(b); ok {
				s.metrics.add("batch_cache_hits", int64(len(j.results)))
				s.fillBatchJob(out, j, s.cacheStateFor(key, src), body)
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
		local = local[:0]
		groups := make(map[string][]*batchJob)
		var gorder []string
		for _, j := range cold {
			owner := s.cluster.ring.Owner(j.key)
			if owner == s.cluster.self {
				local = append(local, j)
				continue
			}
			if _, ok := groups[owner]; !ok {
				gorder = append(gorder, owner)
			}
			groups[owner] = append(groups[owner], j)
		}
		for _, owner := range gorder {
			if !s.forwardBatch(ctx, owner, groups[owner], out) {
				local = append(local, groups[owner]...)
			}
		}
	}

	if len(local) > 0 {
		if err := s.runCompute(ctx, func() { s.runBatchLocal(ctx, local, out) }); err != nil {
			s.writeComputeError(w, err, http.StatusInternalServerError)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, batchResponse{Jobs: out})
}

// runBatchLocal executes a batch's local jobs inside one already-held
// compute slot: inputs resolve and statistics precollect sequentially
// through one d2t2.Batch — each distinct (tensor, base tile, level
// order) bundle is loaded, decoded or collected once, and every job in
// its group gets the same decoded bundle and shape memo — then the
// per-job shape searches fan out via internal/par, splitting the slot's
// worker budget across them. The bundles are dropped with the batch.
// Results and failures land in each job's own result slots.
func (s *Server) runBatchLocal(ctx context.Context, local []*batchJob, out []batchJobResult) {
	batch := s.session.NewBatch()
	live := make([]*batchJob, 0, len(local))
	for _, j := range local {
		inputs, err := s.resolveInputs(ctx, j.k.InputOrders(), j.req.Inputs)
		if err != nil {
			s.failBatchJob(out, j, err)
			continue
		}
		if err := batch.PrecollectCtx(ctx, j.k, inputs, d2t2.Options{
			BufferWords:    j.req.BufferWords,
			Analytic:       j.req.Analytic,
			DisableCorrs:   j.req.DisableCorrs,
			SkipResize:     j.req.SkipResize,
			OverflowTarget: j.req.OverflowTarget,
		}); err != nil {
			s.failBatchJob(out, j, err)
			continue
		}
		j.inputs = inputs
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	perJob := s.cfg.Workers / len(live)
	if perJob < 1 {
		perJob = 1
	}
	// Job failures are recorded per slot, never returned: one bad job
	// must not cancel its batchmates. Only a dead ctx stops the sweep.
	perr := par.ForEachCtx(ctx, s.cfg.Workers, len(live), func(i int) error {
		j := live[i]
		plan, err := batch.OptimizeCtx(ctx, j.k, j.inputs, d2t2.Options{
			BufferWords:    j.req.BufferWords,
			Analytic:       j.req.Analytic,
			DisableCorrs:   j.req.DisableCorrs,
			SkipResize:     j.req.SkipResize,
			Workers:        perJob,
			OverflowTarget: j.req.OverflowTarget,
			Calibrate:      j.req.Calibrate,
		})
		if err != nil {
			s.failBatchJob(out, j, err)
			return nil
		}
		resp := optimizeResponse{
			Kernel:      j.req.Kernel,
			Config:      plan.Config,
			BaseTile:    plan.BaseTile,
			RF:          plan.RF,
			TileFactor:  plan.TileFactor,
			PredictedMB: plan.PredictedMB,
			Risk:        riskOf(plan),
		}
		if plan.Risk != nil && plan.Risk.Calibration != nil {
			s.metrics.add("calibration_runs", 1)
		}
		if j.req.Measure {
			report, err := plan.MeasureCtx(ctx)
			if err != nil {
				s.failBatchJob(out, j, err)
				return nil
			}
			mb := report.TotalMB()
			resp.MeasuredMB = &mb
			if resp.Risk != nil {
				rate := report.OverflowRate()
				resp.Risk.MeasuredOverflowRate = &rate
			}
		}
		var body []byte
		if j.req.Calibrate {
			body, err = marshalBody(resp)
		} else {
			body, err = s.marshalAndPersist(j.key, resp)
		}
		if err != nil {
			s.failBatchJob(out, j, err)
			return nil
		}
		s.metrics.add("batch_local_jobs", int64(len(j.results)))
		s.fillBatchJob(out, j, "miss", body)
		return nil
	})
	if perr != nil {
		for _, j := range live {
			for _, i := range j.results {
				if out[i].Response == nil && out[i].Error == "" {
					out[i].Error = perr.Error()
				}
			}
		}
	}
}

// forwardBatch relays one owner's cold jobs as a sub-batch of canonical
// requests; the owner derives identical keys and runs (or serves) them.
// Responses cache-fill locally without re-replication — the owner
// already drives placement. Returns false when the owner could not be
// used at all (transport failure, bad response shape); then the whole
// group falls back to local compute.
func (s *Server) forwardBatch(ctx context.Context, owner string, group []*batchJob, out []batchJobResult) bool {
	sub := batchRequest{Jobs: make([]optimizeRequest, len(group))}
	for i, j := range group {
		sub.Jobs[i] = j.req
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return false
	}
	res, err := s.cluster.client.Forward(ctx, owner, "batch", body)
	if err != nil || res.Status != http.StatusOK {
		return false
	}
	var br batchResponse
	if err := json.Unmarshal(res.Body, &br); err != nil || len(br.Jobs) != len(group) {
		return false
	}
	for i, j := range group {
		jr := br.Jobs[i]
		if jr.Error != "" || jr.Response == nil {
			s.failBatchJob(out, j, fmt.Errorf("owner %s: %s", owner, jr.Error))
			continue
		}
		if !j.req.Calibrate {
			s.persistResponseBytes(j.key, jr.Response, false)
		}
		s.metrics.add("batch_forwarded_jobs", int64(len(j.results)))
		s.fillBatchJob(out, j, "forwarded", jr.Response)
	}
	return true
}

func (s *Server) fillBatchJob(out []batchJobResult, j *batchJob, cache string, body []byte) {
	for _, i := range j.results {
		out[i].Cache = cache
		out[i].Response = body
	}
}

func (s *Server) failBatchJob(out []batchJobResult, j *batchJob, err error) {
	s.metrics.add("batch_job_errors", int64(len(j.results)))
	for _, i := range j.results {
		out[i].Error = err.Error()
	}
}
