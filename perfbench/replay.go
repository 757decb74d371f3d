package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/mmio"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/par"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// microDiv is the statistics micro-tile divisor d2t2d's session uses.
const microDiv = 8

// replayer re-runs the operations a workload sent to d2t2d through the
// public functions of each layer, one span per call, with the same
// caching the server applies: a tensor is content-addressed once,
// statistics are collected once per frame and decoded from their
// artifact afterwards, and a warm response is a decode of its artifact.
type replayer struct {
	ctx     context.Context
	tr      *tracer
	workers int

	ids       map[*tensor.COO]string
	stats     map[string][]byte // stats key -> STAT artifact
	partials  map[string][]byte // partial key -> PART artifact
	responses map[string][]byte // response label -> RESP artifact

	// timed marks replay of a timed operation; candidates sums
	// len(Result.Candidates) over their searches.
	timed      bool
	candidates int
}

func newReplayer(ctx context.Context, tr *tracer) *replayer {
	return &replayer{
		ctx:       ctx,
		tr:        tr,
		workers:   runtime.GOMAXPROCS(0),
		ids:       make(map[*tensor.COO]string),
		stats:     make(map[string][]byte),
		partials:  make(map[string][]byte),
		responses: make(map[string][]byte),
	}
}

// step replays one operation under its own parent span; op is the
// timed operation's index, -1 for set-up work.
func (rp *replayer) step(op int, fn func() error) error {
	phase := phaseSetup
	if op >= 0 {
		phase = phaseTimed
	}
	rp.timed = op >= 0
	done := rp.tr.enter("replay.op", phase, op)
	defer done()
	return fn()
}

// ingestAll replays the set-up uploads of a resident corpus.
func (rp *replayer) ingestAll(bodies [][]byte) ([]*tensor.COO, error) {
	ts := make([]*tensor.COO, len(bodies))
	err := rp.step(-1, func() error {
		for i, b := range bodies {
			t, err := rp.ingest(b)
			if err != nil {
				return err
			}
			ts[i] = t
		}
		return nil
	})
	return ts, err
}

// ingest parses and normalizes an upload, content-addresses it and
// encodes its tensor artifact.
func (rp *replayer) ingest(body []byte) (*tensor.COO, error) {
	var t *tensor.COO
	err := rp.tr.run("ingest.parse", func() error {
		var err error
		t, err = mmio.ReadAny(bytes.NewReader(body))
		if err == nil {
			t.Dedup()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, rp.register(t)
}

// register content-addresses t and encodes its tensor artifact.
func (rp *replayer) register(t *tensor.COO) error {
	var id string
	if err := rp.tr.run("snapshot.tensor_id", func() error {
		var err error
		id, err = snapshot.TensorID(t)
		return err
	}); err != nil {
		return err
	}
	rp.ids[t] = id
	return rp.tr.run("snapshot.encode", func() error {
		_, err := snapshot.EncodeBytes(&snapshot.Artifact{Tensor: t})
		return err
	})
}

// statsFor returns t's statistics at one frame: decoded from the
// artifact when an earlier call collected them, else tiled, collected
// and encoded.
func (rp *replayer) statsFor(t *tensor.COO, dims, order []int) (*stats.Stats, error) {
	key := snapshot.StatsKey(rp.ids[t], dims, order, microDiv)
	if b, ok := rp.stats[key]; ok {
		var a *snapshot.Artifact
		err := rp.tr.run("snapshot.decode", func() error {
			var err error
			a, err = snapshot.DecodeBytes(b)
			return err
		})
		if err != nil {
			return nil, err
		}
		return a.Stats, nil
	}
	var tt *tiling.TiledTensor
	if err := rp.tr.run("tiling.base", func() error {
		var err error
		tt, err = tiling.NewCtx(rp.ctx, t, dims, order, rp.workers)
		return err
	}); err != nil {
		return nil, err
	}
	var st *stats.Stats
	if err := rp.tr.run("stats.collect", func() error {
		var err error
		st, err = stats.CollectFromTiledCtx(rp.ctx, t, tt, &stats.Options{MicroDiv: microDiv, Workers: rp.workers})
		return err
	}); err != nil {
		return nil, err
	}
	err := rp.tr.run("snapshot.encode", func() error {
		b, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: st, Tiled: tt})
		rp.stats[key] = b
		return err
	})
	return st, err
}

// precollect fetches the statistics an optimize of e at bufferWords
// consumes: every distinct input at the conservative square base tile,
// in the kernel's level order.
func (rp *replayer) precollect(e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int) (map[string]*stats.Stats, error) {
	base, err := optimizer.Options{BufferWords: bufferWords}.ConservativeBase(e)
	if err != nil {
		return nil, err
	}
	pre := make(map[string]*stats.Stats)
	for _, ref := range e.Inputs() {
		if pre[ref.Name] != nil {
			continue
		}
		dims := make([]int, len(ref.Indices))
		for a := range dims {
			dims[a] = base
		}
		st, err := rp.statsFor(inputs[ref.Name], dims, e.LevelOrder(ref))
		if err != nil {
			return nil, err
		}
		pre[ref.Name] = st
	}
	return pre, nil
}

// search runs the shape and size search on precollected statistics.
func (rp *replayer) search(e *einsum.Expr, inputs map[string]*tensor.COO, pre map[string]*stats.Stats, bufferWords, workers int) (*optimizer.Result, error) {
	var res *optimizer.Result
	err := rp.tr.run("optimizer.search", func() error {
		var err error
		res, err = optimizer.OptimizeCtx(rp.ctx, e, inputs, optimizer.Options{
			BufferWords: bufferWords, Workers: workers, Precollected: pre,
		})
		return err
	})
	return res, err
}

// optimize replays a cold POST /v1/optimize, measuring the plan when
// measure is set, and encodes the response artifact under label.
func (rp *replayer) optimize(e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int, measure bool, label string, body []byte) error {
	pre, err := rp.precollect(e, inputs, bufferWords)
	if err != nil {
		return err
	}
	res, err := rp.search(e, inputs, pre, bufferWords, rp.workers)
	if err != nil {
		return err
	}
	if rp.timed {
		rp.candidates += len(res.Candidates)
	}
	if measure {
		if _, err := rp.measure(e, inputs, res.Config, false); err != nil {
			return err
		}
	}
	return rp.respond(label, body)
}

// measure retiles the inputs at cfg and counts the exact traffic.
func (rp *replayer) measure(e *einsum.Expr, inputs map[string]*tensor.COO, cfg model.Config, generic bool) (*exec.Traffic, error) {
	tiled, err := rp.retile(e, inputs, cfg)
	if err != nil {
		return nil, err
	}
	return rp.exec(e, tiled, generic)
}

func (rp *replayer) retile(e *einsum.Expr, inputs map[string]*tensor.COO, cfg model.Config) (map[string]*tiling.TiledTensor, error) {
	var tiled map[string]*tiling.TiledTensor
	err := rp.tr.run("tiling.retile", func() error {
		var err error
		tiled, err = optimizer.TileAllCtx(rp.ctx, e, inputs, cfg, rp.workers)
		return err
	})
	return tiled, err
}

func (rp *replayer) exec(e *einsum.Expr, tiled map[string]*tiling.TiledTensor, generic bool) (*exec.Traffic, error) {
	name := "exec.measure"
	if generic {
		name = "check.exec_generic"
	}
	var res *exec.Result
	err := rp.tr.run(name, func() error {
		var err error
		res, err = exec.MeasureCtx(rp.ctx, e, tiled, &exec.Options{Workers: par.Workers(rp.workers), ForceGeneric: generic})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &res.Traffic, nil
}

// predict replays a cold POST /v1/predict.
func (rp *replayer) predict(e *einsum.Expr, inputs map[string]*tensor.COO, cfg model.Config, statsTile int, label string, body []byte) error {
	st := make(map[string]*stats.Stats)
	for _, ref := range e.Inputs() {
		if st[ref.Name] != nil {
			continue
		}
		t := inputs[ref.Name]
		dims := make([]int, len(ref.Indices))
		for a := range dims {
			dims[a] = min(statsTile, t.Dims[a])
		}
		one, err := rp.statsFor(t, dims, e.LevelOrder(ref))
		if err != nil {
			return err
		}
		st[ref.Name] = one
	}
	if err := rp.tr.run("optimizer.predict", func() error {
		p, err := model.New(e, st)
		if err != nil {
			return err
		}
		_, err = p.Predict(cfg)
		return err
	}); err != nil {
		return err
	}
	return rp.respond(label, body)
}

// respond encodes a response body as its RESP artifact under label.
func (rp *replayer) respond(label string, body []byte) error {
	return rp.tr.run("snapshot.encode", func() error {
		b, err := snapshot.EncodeBytes(&snapshot.Artifact{Response: body})
		rp.responses[label] = b
		return err
	})
}

// hit replays a warm request: decoding the cached response artifact.
func (rp *replayer) hit(label string) error {
	b, ok := rp.responses[label]
	if !ok {
		return fmt.Errorf("replay: no response artifact %q", label)
	}
	return rp.tr.run("snapshot.decode", func() error {
		_, err := snapshot.DecodeBytes(b)
		return err
	})
}

// delta replays POST /v1/tensors/{id}/delta at a square frame of side
// tile: the combined tensor is built and normalized, the base's partial
// statistics are decoded (or collected once), the delta is merged and
// finalized, and the new version is content-addressed and encoded.
func (rp *replayer) delta(t *tensor.COO, crds [][]int, vals []float64, tile int) (*tensor.COO, *stats.DeltaReport, error) {
	n := t.Order()
	d := tensor.New(t.Dims...)
	for e, c := range crds {
		d.Append(c, vals[e])
	}
	var combined *tensor.COO
	_ = rp.tr.run("ingest.normalize", func() error {
		combined = t.Clone()
		for pos := 0; pos < d.NNZ(); pos++ {
			combined.Append(d.At(pos), d.Vals[pos])
		}
		combined.Dedup()
		return nil
	})
	dims := make([]int, n)
	order := make([]int, n)
	for a := range dims {
		dims[a] = min(tile, t.Dims[a])
		order[a] = a
	}
	oldKey := snapshot.PartialKey(rp.ids[t], dims, order, microDiv)
	var p *stats.Partial
	if b, ok := rp.partials[oldKey]; ok {
		if err := rp.tr.run("snapshot.decode", func() error {
			a, err := snapshot.DecodeBytes(b)
			if err == nil {
				p = a.Partial
			}
			return err
		}); err != nil {
			return nil, nil, err
		}
	} else {
		if err := rp.tr.run("stats.collect_partial", func() error {
			var err error
			p, err = stats.CollectPartialCtx(rp.ctx, t, dims, order, &stats.Options{MicroDiv: microDiv, Workers: rp.workers})
			return err
		}); err != nil {
			return nil, nil, err
		}
		if err := rp.encodePartial(oldKey, p); err != nil {
			return nil, nil, err
		}
	}
	var merged *stats.Partial
	var st *stats.Stats
	var rep *stats.DeltaReport
	if err := rp.tr.run("stats.delta", func() error {
		var err error
		merged, rep, err = stats.ApplyDeltaCtx(rp.ctx, p, t, d, rp.workers)
		if err != nil {
			return err
		}
		st, err = merged.Finalize()
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := rp.register(combined); err != nil {
		return nil, nil, err
	}
	id := rp.ids[combined]
	if err := rp.encodePartial(snapshot.PartialKey(id, dims, order, microDiv), merged); err != nil {
		return nil, nil, err
	}
	err := rp.tr.run("snapshot.encode", func() error {
		b, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: st})
		rp.stats[snapshot.StatsKey(id, dims, order, microDiv)] = b
		return err
	})
	return combined, rep, err
}

func (rp *replayer) encodePartial(key string, p *stats.Partial) error {
	return rp.tr.run("snapshot.encode", func() error {
		b, err := snapshot.EncodeBytes(&snapshot.Artifact{Partial: p})
		rp.partials[key] = b
		return err
	})
}

// batchJob is one optimize job of a POST /v1/batch.
type batchJob struct {
	e           *einsum.Expr
	inputs      map[string]*tensor.COO
	bufferWords int
}

// batch replays POST /v1/batch on a cold tensor: statistics are fetched
// job by job, then the searches fan out over the worker budget, each
// search on its share of the workers, and every response is encoded.
func (rp *replayer) batch(jobs []batchJob, labels []string, bodies [][]byte) error {
	pres := make([]map[string]*stats.Stats, len(jobs))
	for i, j := range jobs {
		pre, err := rp.precollect(j.e, j.inputs, j.bufferWords)
		if err != nil {
			return err
		}
		pres[i] = pre
	}
	perJob := max(rp.workers/len(jobs), 1)
	found := make([]int, len(jobs))
	err := par.ForEachCtx(rp.ctx, rp.workers, len(jobs), func(i int) error {
		j := jobs[i]
		// The server re-reads each job's statistics from the store
		// before its search; every read is a hit by now, so the
		// concurrent map reads race with no write.
		if _, err := rp.precollect(j.e, j.inputs, j.bufferWords); err != nil {
			return err
		}
		res, err := rp.search(j.e, j.inputs, pres[i], j.bufferWords, perJob)
		if err == nil {
			found[i] = len(res.Candidates)
		}
		return err
	})
	if err != nil {
		return err
	}
	for i := range jobs {
		if rp.timed {
			rp.candidates += found[i]
		}
		if err := rp.respond(labels[i], bodies[i]); err != nil {
			return err
		}
	}
	return nil
}
