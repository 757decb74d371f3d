package d2t2

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §6),
// each regenerating its experiment on the quick suite and reporting the
// headline number as a custom metric, plus microbenchmarks of the
// pipeline stages (tiling, statistics collection, model prediction,
// measurement). Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale evaluation lives in cmd/expbench.

import (
	"context"
	"strconv"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/experiments"
	"d2t2/internal/hierarchy"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/stats"
	"d2t2/internal/tiling"
)

// benchSuite returns a fresh quick suite per benchmark (avoids cross-
// benchmark cache effects in timings).
func benchSuite() *experiments.Suite { return experiments.QuickSuite() }

// metricFromNote extracts the first float in a table cell for reporting.
func lastColMean(tbl *experiments.Table, col int) float64 {
	sum, n := 0.0, 0
	for _, row := range tbl.Rows {
		if v, err := strconv.ParseFloat(row[col], 64); err == nil {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func runExperiment(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		tbl, err := e.Run(context.Background(), benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		if metricCol >= 0 {
			b.ReportMetric(lastColMean(tbl, metricCol), metricName)
		}
	}
}

func BenchmarkFig3c(b *testing.B)            { runExperiment(b, "fig3c", 4, "totalTraffic") }
func BenchmarkFig5Validation(b *testing.B)   { runExperiment(b, "fig5", 2, "meanErrPct") }
func BenchmarkFig6aLinearity(b *testing.B)   { runExperiment(b, "fig6a", 2, "speedup") }
func BenchmarkFig6bTailors(b *testing.B)     { runExperiment(b, "fig6b", 1, "d2t2Speedup") }
func BenchmarkFig6cDRT(b *testing.B)         { runExperiment(b, "fig6c", 1, "d2t2Improvement") }
func BenchmarkFig7Overhead(b *testing.B)     { runExperiment(b, "fig7", 4, "statsPct") }
func BenchmarkFig8CorrShape(b *testing.B)    { runExperiment(b, "fig8", 1, "sumCorrs") }
func BenchmarkFig9Ablation(b *testing.B)     { runExperiment(b, "fig9", 1, "noCorrsRatio") }
func BenchmarkSec66Optimality(b *testing.B)  { runExperiment(b, "sec66", 3, "trafficSharePct") }
func BenchmarkSec67PackedTiles(b *testing.B) { runExperiment(b, "sec67", 1, "packedRatio") }

func BenchmarkTable4HigherOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Scale: 48, TileSide: 32}
		tbl, err := experiments.Table4(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastColMean(tbl, 2), "ttmImprovement")
	}
}

func BenchmarkTable5Opal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastColMean(tbl, 3), "opalSpeedup")
	}
}

// --- pipeline-stage microbenchmarks ---------------------------------

func benchMatrix(b *testing.B) map[string]*d2t2Tensor {
	b.Helper()
	a, err := Dataset("E", 64)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]*d2t2Tensor{"A": a, "B": a.Transpose()}
}

// d2t2Tensor aliases the public tensor for the helpers below.
type d2t2Tensor = Tensor

func BenchmarkInitialTiling(b *testing.B) {
	mats := benchMatrix(b)
	coo := mats["A"].coo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.NewCtx(context.Background(), coo, []int{64, 64}, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatsCollection(b *testing.B) {
	mats := benchMatrix(b)
	coo := mats["A"].coo
	tt, err := tiling.NewCtx(context.Background(), coo, []int{64, 64}, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.CollectFromTiledCtx(context.Background(), coo, tt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	mats := benchMatrix(b)
	e := einsum.SpMSpMIKJ()
	st := make(map[string]*stats.Stats)
	for _, name := range []string{"A", "B"} {
		ref, _ := e.Input(name)
		s, _, err := stats.CollectCtx(context.Background(), mats[name].coo, []int{64, 64}, e.LevelOrder(ref), nil)
		if err != nil {
			b.Fatal(err)
		}
		st[name] = s
	}
	pred, err := model.New(e, st)
	if err != nil {
		b.Fatal(err)
	}
	cfg := model.Config{"i": 256, "k": 16, "j": 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Predict(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizePipeline(b *testing.B) {
	mats := benchMatrix(b)
	inputs := map[string]*Tensor{"A": mats["A"], "B": mats["B"]}
	lowered := Inputs(inputs).lower()
	e := einsum.SpMSpMIKJ()
	buffer := tiling.DenseFootprintWords([]int{64, 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.OptimizeCtx(context.Background(), e, lowered, optimizer.Options{BufferWords: buffer}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureBackend(b *testing.B) {
	mats := benchMatrix(b)
	e := einsum.SpMSpMIKJ()
	lowered := Inputs(map[string]*Tensor{"A": mats["A"], "B": mats["B"]}).lower()
	tiled, err := optimizer.TileAllCtx(context.Background(), e, lowered, model.Config{"i": 64, "k": 64, "j": 64}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.MeasureCtx(context.Background(), e, tiled, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSFBuild(b *testing.B) {
	mats := benchMatrix(b)
	coo := mats["A"].coo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt, err := tiling.NewCtx(context.Background(), coo, []int{coo.Dims[0], coo.Dims[1]}, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = tt
	}
}

func BenchmarkHierarchyOptimize(b *testing.B) {
	mats := benchMatrix(b)
	e := einsum.SpMSpMIKJ()
	lowered := Inputs(map[string]*Tensor{"A": mats["A"], "B": mats["B"]}).lower()
	opts := hierarchy.Options{
		L2BufferWords: tiling.DenseFootprintWords([]int{128, 128}),
		L1BufferWords: tiling.DenseFootprintWords([]int{16, 16}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.Optimize(context.Background(), e, lowered, opts); err != nil {
			b.Fatal(err)
		}
	}
}
