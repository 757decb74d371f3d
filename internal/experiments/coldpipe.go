package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"d2t2/internal/einsum"
	"d2t2/internal/optimizer"
)

// ColdPipe measures the wall-clock of the full cold pipeline —
// summary-only statistics collection at the conservative base tile (no
// base tiling is materialized), shape sweep, size growth, final
// retiling — serially and at the suite's worker count, on the
// collection and search code the d2t2d service runs for a cold ingest.
// The configurations chosen at both worker counts must agree exactly
// (the pipeline's determinism gate); the table reports the speedup.
func ColdPipe(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	workers := s.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tbl := &Table{
		ID:    "coldpipe",
		Title: "Cold-pipeline wall clock: serial vs parallel (extension)",
		Headers: []string{"Matrix", "Serial(ms)", fmt.Sprintf("W=%d(ms)", workers),
			"Speedup", "Retile1(ms)", fmt.Sprintf("RetileW=%d(ms)", workers)},
	}
	var speedups []float64
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		buffer := s.BufferWords()

		run := func(w int) (*optimizer.Result, time.Duration, time.Duration, error) {
			t0 := time.Now()
			res, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{BufferWords: buffer, Workers: w})
			if err != nil {
				return nil, 0, 0, err
			}
			optDur := time.Since(t0)
			t1 := time.Now()
			if _, err := optimizer.TileAllCtx(ctx, e, inputs, res.Config, w); err != nil {
				return nil, 0, 0, err
			}
			return res, optDur, time.Since(t1), nil
		}
		res1, serialOpt, serialTile, err := run(1)
		if err != nil {
			return nil, err
		}
		resW, parOpt, parTile, err := run(workers)
		if err != nil {
			return nil, err
		}
		for ix, v := range res1.Config {
			if resW.Config[ix] != v {
				return nil, fmt.Errorf("coldpipe: %s: config diverges between worker counts (%v vs %v)",
					label, res1.Config, resW.Config)
			}
		}
		sp := 1.0
		if parOpt > 0 {
			sp = float64(serialOpt) / float64(parOpt)
		}
		speedups = append(speedups, sp)
		tbl.Append(label, serialOpt.Milliseconds(), parOpt.Milliseconds(), sp,
			serialTile.Milliseconds(), parTile.Milliseconds())
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"mean cold-pipeline speedup %.2fx at %d workers on %d cores",
		mean(speedups), workers, runtime.GOMAXPROCS(0)))
	return tbl, nil
}
