package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"d2t2"
	"d2t2/internal/par"
	"d2t2/internal/snapshot"
)

// The request ladder. Every optimize and predict job — a single
// request, a /v1/batch job, or either one forwarded to its ring owner
// over the /internal/ twins — is canonicalized into a keyedJob by
// exactly one function (optimizeJob, predictJob) and then climbs the
// same rungs: the warm cache (cachedResponse), a forward to the key's
// owner, and local compute with persistence (runLocal). A single
// request is a batch of one: it runs runLocal with its one job inside
// its singleflight.

// keyedJob is one canonicalized optimize or predict request.
type keyedJob struct {
	endpoint string // "optimize" or "predict": the key's namespace and the forward route
	key      string // content address of canon, the response cache key
	canon    []byte // canonical request bytes, the exact body a forward sends
	// calibrate marks a stateful request (the calibration state advances
	// on every run): it never serves from or lands in the response cache.
	calibrate bool
	risk      string // X-D2T2-Risk header value, "" for a conservative request
	k         *d2t2.Kernel
	inputIDs  map[string]string
	inputs    d2t2.Inputs // set by resolveInputs
	// opts is an optimize job's pipeline options, read by run — which
	// resolves the job's statistics bundles inside runLocal's fan-out —
	// and by the raw rung. nil for predict.
	opts *d2t2.Options
	// run builds the response value on a pool worker. b is the runner's
	// batch scope and workers the job's share of the compute slot.
	run func(ctx context.Context, b *d2t2.Batch, inputs d2t2.Inputs, workers int) (any, error)
}

// newKeyedJob keys a canonical request: the struct is re-marshaled after
// defaults are applied and the kernel is normalized, so equivalent
// requests collide onto one cached response.
func newKeyedJob(endpoint string, canonical any, k *d2t2.Kernel, inputIDs map[string]string, target float64, calibrate bool) (*keyedJob, error) {
	canon, err := json.Marshal(canonical)
	if err != nil {
		return nil, err
	}
	return &keyedJob{
		endpoint:  endpoint,
		key:       snapshot.ResponseKey(endpoint, canon),
		canon:     canon,
		calibrate: calibrate,
		risk:      riskHeader(target, calibrate),
		k:         k,
		inputIDs:  inputIDs,
	}, nil
}

// kernel parses a request's kernel string once per server: the parsed
// Kernel (immutable, so requests share it) stays resident as the
// value-only entry "kernel\n"+text, charged like a raw-rung entry and
// evicted by the same LRU. A parse error is not kept; the next request
// with that text parses it again and gets the same error.
func (s *Server) kernel(text string) (*d2t2.Kernel, error) {
	key := "kernel\n" + text
	if v, _ := s.store.Value(key); v != nil {
		if k, ok := v.(*d2t2.Kernel); ok {
			return k, nil
		}
	}
	k, err := d2t2.ParseKernel(text)
	if err != nil {
		return nil, err
	}
	// A parsed kernel's heap is about 18 bytes per character of its text.
	s.store.Keep(key, nil, k, 24*int64(len(key)))
	return k, nil
}

func checkOverflowTarget(target float64) error {
	if target < 0 || target >= 1 {
		return fmt.Errorf("overflow_target %v outside [0, 1)", target)
	}
	return nil
}

// optimizeJob canonicalizes an optimize request — /v1/optimize, every
// /v1/batch job and both /internal/ twins: it validates the kernel and
// overflow_target, sizes the default buffer, and drops the tile knob the
// buffer replaces. An error is the request's fault.
func (s *Server) optimizeJob(req optimizeRequest) (*keyedJob, error) {
	k, err := s.kernel(req.Kernel)
	if err != nil {
		return nil, err
	}
	if err := checkOverflowTarget(req.OverflowTarget); err != nil {
		return nil, err
	}
	if req.BufferWords <= 0 {
		tile := req.Tile
		if tile <= 0 {
			tile = s.cfg.DefaultStatsTile
		}
		order := maxOrder(k.InputOrders())
		// A tile this large would overflow the buffer size (≈ 2·tile^order).
		if math.Pow(float64(tile), float64(order)) > 1<<60 {
			return nil, fmt.Errorf("tile %d too large for an order-%d buffer", tile, order)
		}
		req.BufferWords = denseSquareWords(tile, order)
	}
	req.Tile = 0
	req.Kernel = k.String()
	if req.OverflowTarget > 0 {
		s.metrics.add(optimizeOverbooked, 1)
	}
	j, err := newKeyedJob("optimize", req, k, req.Inputs, req.OverflowTarget, req.Calibrate)
	if err != nil {
		return nil, err
	}
	j.opts = &d2t2.Options{
		BufferWords:    req.BufferWords,
		Analytic:       req.Analytic,
		DisableCorrs:   req.DisableCorrs,
		SkipResize:     req.SkipResize,
		OverflowTarget: req.OverflowTarget,
		Calibrate:      req.Calibrate,
	}
	j.run = func(ctx context.Context, b *d2t2.Batch, inputs d2t2.Inputs, workers int) (any, error) {
		opts := *j.opts
		opts.Workers = workers
		plan, err := b.OptimizeCtx(ctx, k, inputs, opts)
		if err != nil {
			return nil, err
		}
		return s.planResponse(ctx, req.Kernel, plan, req.Measure)
	}
	return j, nil
}

// predictJob canonicalizes a predict request (see optimizeJob).
func (s *Server) predictJob(req predictRequest) (*keyedJob, error) {
	k, err := s.kernel(req.Kernel)
	if err != nil {
		return nil, err
	}
	if err := checkOverflowTarget(req.OverflowTarget); err != nil {
		return nil, err
	}
	if req.StatsTile <= 0 {
		req.StatsTile = s.cfg.DefaultStatsTile
	}
	req.Kernel = k.String()
	j, err := newKeyedJob("predict", req, k, req.Inputs, req.OverflowTarget, req.Calibrate)
	if err != nil {
		return nil, err
	}
	j.run = func(ctx context.Context, _ *d2t2.Batch, inputs d2t2.Inputs, _ int) (any, error) {
		mb, err := s.session.PredictCtx(ctx, k, inputs, d2t2.TileConfig(req.Config), req.StatsTile)
		if err != nil {
			return nil, err
		}
		if !req.Calibrate {
			return predictResponse{PredictedMB: mb}, nil
		}
		bias := s.session.CalibrationBias(k, false)
		return predictResponse{PredictedMB: mb * bias, CalibrationBias: &bias}, nil
	}
	return j, nil
}

// planResponse renders a plan on the wire, executing it first when the
// request asked for measured traffic.
func (s *Server) planResponse(ctx context.Context, kernel string, plan *d2t2.Plan, measure bool) (any, error) {
	resp := optimizeResponse{
		Kernel:      kernel,
		Config:      plan.Config,
		BaseTile:    plan.BaseTile,
		RF:          plan.RF,
		TileFactor:  plan.TileFactor,
		PredictedMB: plan.PredictedMB,
		Risk:        riskOf(plan),
	}
	if plan.Risk != nil && plan.Risk.Calibration != nil {
		s.metrics.add(calibrationRuns, 1)
	}
	if measure {
		m, err := s.measure(ctx, plan)
		if err != nil {
			return nil, err
		}
		resp.MeasuredMB = &m.totalMB
		if resp.Risk != nil {
			resp.Risk.MeasuredOverflowRate = &m.overflowRate
		}
	}
	return resp, nil
}

// measurement is the measurement rung's value: what a response reads
// of one plan's measured traffic.
type measurement struct{ totalMB, overflowRate float64 }

// measure is the measurement rung: a plan's measured traffic is pure in
// its MeasureKey, so it runs once per key while the value-only entry
// "measure\n"+key stays resident (charged like a raw-rung entry, never a
// content address, evicted by the same LRU). Requests at different
// buffers that choose one config share it; a new tensor version has a
// new address, so it can never hit a stale entry.
func (s *Server) measure(ctx context.Context, plan *d2t2.Plan) (measurement, error) {
	key, err := plan.MeasureKey()
	if err != nil {
		return measurement{}, err
	}
	key = "measure\n" + key
	v, _ := s.store.Value(key)
	if m, ok := v.(measurement); ok {
		s.metrics.add(measureMemoHits, 1)
		return m, nil
	}
	report, err := plan.MeasureCtx(ctx)
	if err != nil {
		return measurement{}, err
	}
	s.metrics.add(measureRuns, 1)
	m := measurement{totalMB: report.TotalMB(), overflowRate: report.OverflowRate()}
	s.store.Keep(key, nil, m, int64(len(key))+16) // the key and two float64s
	return m, nil
}

// single is the single-request ladder of one endpoint: the raw rung
// (exact body bytes to the key canonicalization produced for them),
// else decode and canonicalize; then per key the local cache (mem →
// disk → peer read-through), then — public route on a non-owner only —
// a forward to the owner so its singleflight coalesces the cold run
// fleet-wide, then local compute as the always-available fallback. A
// raw hit whose artifact is gone falls through to the full decode path
// without re-reading the cache or re-counting anything. Every request
// counts under total, every warm hit under hits.
func single[R any](s *Server, internal bool, endpoint string, total, hits counter, canonicalize func(R) (*keyedJob, error)) http.HandlerFunc {
	route := endpoint + "\n"
	if internal {
		route = "internal/" + route
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.add(total, 1)
		ctx := r.Context()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.jsonBodyLimit()))
		var raw string
		skipWarm := false
		if err == nil {
			raw = route + string(body)
			v, _ := s.store.Value(raw)
			if e, ok := v.(rawEntry); ok {
				if resp, state, ok := s.cachedResponse(ctx, e.key); ok {
					if e.overbooked {
						s.metrics.add(optimizeOverbooked, 1)
					}
					setKeyHeaders(w, e.key, e.risk)
					s.metrics.add(hits, 1)
					s.writeBody(w, state, resp)
					return
				}
				skipWarm = true // the warm rung just missed this key
			}
		}
		// Decode from the bytes already read; a body cut at the size limit
		// replays its read error, so the decoder answers as it would have
		// streaming the body.
		var src io.Reader = bytes.NewReader(body)
		if err != nil {
			src = io.MultiReader(src, errReader{err})
		}
		var req R
		if err := decodeJSON(src, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		j, err := canonicalize(req)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		setKeyHeaders(w, j.key, j.risk)
		if j.calibrate {
			skipWarm = true // stateful: never served from the cache
		} else {
			e := rawEntry{key: j.key, risk: j.risk, overbooked: j.opts != nil && j.opts.OverflowTarget > 0}
			s.store.Keep(raw, nil, e, int64(len(raw)+len(e.key)+len(e.risk)))
		}
		if !skipWarm {
			if resp, state, ok := s.cachedResponse(ctx, j.key); ok {
				s.metrics.add(hits, 1)
				s.writeBody(w, state, resp)
				return
			}
		}
		if !internal && s.cluster != nil && !s.cluster.owns(j.key) {
			if body, ok := s.forwardToOwner(ctx, j); ok {
				s.writeBody(w, "forwarded", body)
				return
			}
		}
		if err := s.resolveInputs(ctx, j); err != nil {
			s.writeError(w, http.StatusNotFound, err)
			return
		}
		// The cold pipeline runs once per distinct request content:
		// identical concurrent requests coalesce onto one flight and share
		// the leader's bytes, and a leader first re-checks the local warm
		// rung for a flight that landed since its own check. The job runs
		// on the bounded pool under the FLIGHT context — cancelled only
		// when every coalesced participant has left — so a deadline or
		// disconnect still stops abandoned compute at its next work-item
		// boundary, but one follower hanging up never kills the run for
		// the rest.
		var warm func() ([]byte, string, bool)
		if !j.calibrate {
			warm = func() ([]byte, string, bool) {
				resp, state, ok := s.landedResponse(j.key)
				if ok {
					s.metrics.add(hits, 1)
				}
				return resp, state, ok
			}
		}
		if s.beforeFlight != nil {
			s.beforeFlight()
		}
		body, state, err := s.flights.do(ctx, j.key, warm, func(fctx context.Context) ([]byte, error) {
			var res []jobResult
			if err := s.runCompute(fctx, func(ctx context.Context) {
				if s.inFlight != nil {
					s.inFlight(ctx)
				}
				res = s.runLocal(ctx, []*keyedJob{j})
			}); err != nil {
				return nil, err
			}
			if res[0].err != nil {
				return nil, &pipelineError{err: res[0].err}
			}
			return res[0].body, nil
		})
		if err != nil {
			s.writeFlightError(w, err)
			return
		}
		s.writeBody(w, state, body)
	}
}

// setKeyHeaders names a request's response key and risk point. The risk
// header derives from the request knobs alone, so raw, warm, coalesced
// and cold responses all advertise the same risk point.
func setKeyHeaders(w http.ResponseWriter, key, risk string) {
	h := w.Header()
	h[headerKey] = []string{key}
	if risk != "" {
		h[headerRisk] = []string{risk}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// rawEntry is what canonicalization produced for one raw request: the
// raw rung's value-only store entry under the route-prefixed exact body
// bytes (never a content address, so never on disk or peers, whose
// canonicalization may differ), so a repeat request serves its cached
// response without decoding, parsing or re-keying.
type rawEntry struct {
	key, risk string
	// overbooked replays optimizeJob's optimize_overbooked count.
	overbooked bool
}

// timed observes a handler's latency in the optimize latency histogram.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { s.metrics.observeLatency(time.Since(start)) }()
		h(w, r)
	}
}

// jobResult is one job's local outcome: its response body, or the
// error that failed it.
type jobResult struct {
	body []byte
	err  error
}

// runLocal computes jobs inside one already-held compute slot — a
// batch's local jobs, or a single request's one job inside its flight.
// Inputs resolve first; then the jobs fan out via internal/par,
// splitting the slot's worker budget, and each job resolves its
// statistics bundles and predictor through one d2t2.Batch, whose
// single-flight memos resolve each distinct (tensor, base tile, level
// order) bundle — a load, a decode or a collection — once, however many
// jobs share it; every job sharing it gets the same decoded bundle and
// shape memo. The fan-out starts leaders first (leadersFirst), so the
// groups' cold work runs side by side. Each body is persisted before
// runLocal returns — inside the flight, so a request arriving after the
// flight lands always finds the artifact. A job's failure lands in its
// own result and never cancels its batchmates; only a dead ctx stops
// the sweep. The bundles drop with the batch.
func (s *Server) runLocal(ctx context.Context, jobs []*keyedJob) []jobResult {
	res := make([]jobResult, len(jobs))
	batch := s.session.NewBatch()
	live := make([]int, 0, len(jobs))
	for i, j := range jobs {
		if err := s.resolveInputs(ctx, j); err != nil {
			res[i].err = err
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return res
	}
	live = leadersFirst(jobs, live)
	perJob := max(s.cfg.Workers/len(live), 1)
	perr := par.ForEachCtx(ctx, s.cfg.Workers, len(live), func(n int) error {
		i := live[n]
		j := jobs[i]
		if s.jobStart != nil {
			s.jobStart(j)
		}
		resp, err := j.run(ctx, batch, j.inputs, perJob)
		var body []byte
		if err == nil {
			body, err = marshalBody(resp)
		}
		if err == nil {
			s.persist(j, body, true)
		}
		res[i] = jobResult{body: body, err: err}
		return nil
	})
	if perr != nil {
		for _, i := range live {
			if res[i].body == nil && res[i].err == nil {
				res[i].err = perr
			}
		}
	}
	return res
}

// leadersFirst orders live jobs for the fan-out: the first job of each
// group — one kernel over the same input IDs, so one set of bundles and
// one predictor — then the rest, each part in request order. The
// workers then start on different groups' cold memos side by side
// instead of one computing while the next waits on its flights. The
// order is only a schedule: every job writes its own result slot, so
// the bytes do not depend on it.
func leadersFirst(jobs []*keyedJob, live []int) []int {
	if len(live) < 2 {
		return live
	}
	seen := make(map[string]bool, len(live))
	out := make([]int, 0, len(live))
	var rest []int
	for _, i := range live {
		if g := jobs[i].group(); !seen[g] {
			seen[g] = true
			out = append(out, i)
		} else {
			rest = append(rest, i)
		}
	}
	return append(out, rest...)
}

// group names the job's kernel and input IDs (see leadersFirst).
func (j *keyedJob) group() string {
	names := make([]string, 0, len(j.inputIDs))
	for name := range j.inputIDs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(j.k.String())
	for _, name := range names {
		b.WriteString("\n" + name + "=" + j.inputIDs[name])
	}
	return b.String()
}

// resolveInputs maps a job's operand names to registered tensors,
// loading tensor artifacts from the store for addresses registered by an
// earlier process life — or, clustered, ingested on a different node. A
// single request resolves before its flight (an unknown tensor answers
// 404); runLocal resolves the rest, and a second call is a no-op.
func (s *Server) resolveInputs(ctx context.Context, j *keyedJob) error {
	if j.inputs != nil {
		return nil
	}
	orders := j.k.InputOrders()
	names := make([]string, 0, len(orders))
	for name := range orders {
		names = append(names, name)
	}
	// Sorted, so a request missing several operands always names the same one.
	sort.Strings(names)
	inputs := make(d2t2.Inputs, len(orders))
	for _, name := range names {
		id, ok := j.inputIDs[name]
		if !ok {
			return fmt.Errorf("missing input %q", name)
		}
		t, err := s.tensorByID(ctx, id)
		if err != nil {
			return err
		}
		inputs[name] = t
	}
	j.inputs = inputs
	return nil
}

// cachedResponse is the warm rung: the response body held for key —
// locally, or read through from a cluster peer — and its X-D2T2-Cache
// state. Cache state travels in the header, never in the body, so every
// state serves byte-identical bodies. Calibrated jobs never ask.
func (s *Server) cachedResponse(ctx context.Context, key string) (body []byte, state string, ok bool) {
	if body, ok := s.residentResponse(key); ok {
		return body, s.cacheStateFor(key, SourceMem), true
	}
	b, src := s.storeGet(ctx, key)
	return s.decodeResponse(key, b, src)
}

// landedResponse is cachedResponse on the local layers alone (memory,
// then disk): a flight that ran on this node persisted its response
// there before it left the flight group.
func (s *Server) landedResponse(key string) (body []byte, state string, ok bool) {
	if body, ok := s.residentResponse(key); ok {
		return body, s.cacheStateFor(key, SourceMem), true
	}
	b, src := s.localGet(key)
	return s.decodeResponse(key, b, src)
}

// residentBody is a response artifact's decoded body, kept beside the
// artifact's bytes from its first warm read on: a memory hit then serves
// it with one Store.Value and no decode. Store values must be
// comparable, so the body rides behind a pointer.
type residentBody struct{ body []byte }

// residentResponse serves key's resident body, counted as the memory
// hit its bytes would have been.
func (s *Server) residentResponse(key string) ([]byte, bool) {
	v, _ := s.store.Value(key)
	rb, ok := v.(*residentBody)
	if !ok {
		return nil, false
	}
	s.metrics.add(artifactMemHits, 1)
	return rb.body, true
}

// decodeResponse decodes a response artifact's bytes read from src —
// verifying its framing and CRCs — and keeps the body resident beside
// them, charged at its length.
func (s *Server) decodeResponse(key string, b []byte, src Source) (body []byte, state string, ok bool) {
	if b == nil {
		return nil, "", false
	}
	a, err := snapshot.DecodeBytes(b)
	if err != nil || a.Response == nil {
		return nil, "", false
	}
	s.store.Keep(key, b, &residentBody{a.Response}, int64(len(a.Response)))
	return a.Response, s.cacheStateFor(key, src), true
}

// cacheStateFor names a warm artifact hit for the X-D2T2-Cache header:
// "peer" when the bytes were read through from a cluster peer just now,
// "replica" for a local hit on a key this node does not own (the copy
// landed here via replication or an earlier read-through), and "hit"
// for a local hit on an owned key or any unclustered hit.
func (s *Server) cacheStateFor(key string, src Source) string {
	if src == SourcePeer {
		return "peer"
	}
	if s.cluster != nil && !s.cluster.owns(key) {
		s.metrics.add(replicaHits, 1)
		return "replica"
	}
	return "hit"
}

// persist lands one response body under j's key (see putArtifact):
// replicated when this node computed it, a plain cache-fill when it was
// forwarded from the owner. Calibrated bodies are stateful and never
// land.
func (s *Server) persist(j *keyedJob, body []byte, replicate bool) {
	if !j.calibrate {
		s.putArtifact(j.key, &snapshot.Artifact{Response: body}, replicate)
	}
}

// marshalBody renders a response value as the exact bytes every
// participant is served.
func marshalBody(resp any) ([]byte, error) {
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// decodeJSON decodes exactly one JSON value from r into v. Unknown
// fields and trailing data are errors, so a misspelled knob answers 400
// instead of being silently ignored.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("decode request: trailing data after the JSON value")
	}
	return nil
}
