// Command d2t2 is the Data-Driven Tensor Tiling toolchain CLI: it
// synthesizes datasets, collects tile statistics, optimizes tiling
// configurations, predicts traffic with the probabilistic model, and
// measures actual traffic with the execution backend.
//
// Usage:
//
//	d2t2 gen      -label C -scale 32 -out rma10.mtx
//	d2t2 stats    -input A=rma10.mtx -tile 128
//	d2t2 optimize -kernel "C(i,j) = A(i,k) * B(k,j) | order: i,k,j" \
//	              -input A=a.mtx -input B=b.mtx -tile 128
//	d2t2 measure  -kernel "..." -input A=a.mtx -input B=b.mtx \
//	              -config i=512,k=32,j=512
//	d2t2 predict  -kernel "..." -input A=a.mtx -input B=b.mtx \
//	              -config i=512,k=32,j=512 -tile 128
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"d2t2"
	"d2t2/internal/buildinfo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "optimize":
		err = cmdOptimize(os.Args[2:])
	case "measure":
		err = cmdMeasure(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "spy":
		err = cmdSpy(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Println("d2t2", buildinfo.Version)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "d2t2: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "d2t2:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `d2t2 <command> [flags]

commands:
  gen       synthesize a paper dataset stand-in (Matrix Market / tns)
  stats     collect and print tile statistics for a tensor
  optimize  run the D2T2 pipeline and print the chosen configuration
  measure   execute a tile configuration and report exact traffic
  predict   predict traffic for a configuration with the model
  compare   run conservative/prescient/D2T2 side by side on a machine
  spy       render an ASCII occupancy plot of a matrix
  version   print the build version
  help      show this message`)
}

// inputFlags accumulates repeated -input NAME=FILE flags.
type inputFlags map[string]string

func (f inputFlags) String() string { return fmt.Sprint(map[string]string(f)) }
func (f inputFlags) Set(s string) error {
	name, file, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=FILE, got %q", s)
	}
	f[name] = file
	return nil
}

func loadInputs(files inputFlags) (d2t2.Inputs, error) {
	inputs := make(d2t2.Inputs, len(files))
	for name, path := range files {
		t, err := loadTensor(path)
		if err != nil {
			return nil, fmt.Errorf("input %s: %w", name, err)
		}
		inputs[name] = t
	}
	return inputs, nil
}

func loadTensor(path string) (*d2t2.Tensor, error) {
	// dataset:LABEL[:SCALE] loads a synthetic stand-in directly.
	if rest, ok := strings.CutPrefix(path, "dataset:"); ok {
		label, scaleStr, has := strings.Cut(rest, ":")
		scale := 32
		if has {
			v, err := strconv.Atoi(scaleStr)
			if err != nil {
				return nil, fmt.Errorf("bad dataset scale %q", scaleStr)
			}
			scale = v
		}
		return d2t2.Dataset(label, scale)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".tns") {
		return d2t2.FromTNS(f, nil)
	}
	return d2t2.FromMatrixMarket(f)
}

func parseConfig(s string) (d2t2.TileConfig, error) {
	cfg := make(d2t2.TileConfig)
	for _, part := range strings.Split(s, ",") {
		ix, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("want IDX=SIZE, got %q", part)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad tile size %q", v)
		}
		cfg[ix] = n
	}
	return cfg, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	label := fs.String("label", "C", "dataset label (A..W or Table-5 name)")
	scale := fs.Int("scale", 32, "dimension divisor (1 = paper size)")
	out := fs.String("out", "", "output file (.mtx or .tns; default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := d2t2.Dataset(*label, *scale)
	if err != nil {
		return err
	}
	write := func(w *os.File) error {
		if t.Order() == 2 && !strings.HasSuffix(*out, ".tns") {
			return t.ToMatrixMarket(w)
		}
		return t.ToTNS(w)
	}
	if *out == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	werr := write(f)
	// A failed close loses buffered data, so it is a pipeline failure
	// like any other — never swallow it behind a defer.
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(*out)
	}
	return werr
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	files := inputFlags{}
	fs.Var(files, "input", "NAME=FILE (repeatable; FILE may be dataset:LABEL[:SCALE])")
	tile := fs.Int("tile", 128, "conservative square tile dimension")
	workers := fs.Int("workers", 0, "collection worker count (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inputs, err := loadInputs(files)
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no -input given")
	}
	sess := d2t2.NewSession(nil)
	sess.Workers = *workers
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := inputs[name]
		st, err := sess.StatsCtx(context.Background(), t, *tile)
		if err != nil {
			return err
		}
		fmt.Printf("%s: dims=%v nnz=%d\n", name, t.Dims(), t.NNZ())
		fmt.Printf("  SizeTile=%.1f words  MaxTile=%d words  tiles=%d\n",
			st.SizeTile, st.MaxTile, st.NumTiles)
		fmt.Printf("  PrTileIdx=%v\n  ProbIndex=%v\n", fmtF(st.PrTileIdx), fmtF(st.ProbIndex))
		fmt.Printf("  CorrSum(tile)=%v\n", fmtF(st.CorrSums))
	}
	return nil
}

func fmtF(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	files := inputFlags{}
	fs.Var(files, "input", "NAME=FILE (repeatable)")
	kernel := fs.String("kernel", "C(i,j) = A(i,k) * B(k,j) | order: i,k,j", "TIN kernel")
	tile := fs.Int("tile", 128, "buffer sized for this dense square tile")
	analytic := fs.Bool("analytic", false, "paper-faithful analytic statistics path")
	measure := fs.Bool("measure", false, "also execute and report exact traffic")
	workers := fs.Int("workers", 0, "cold-pipeline worker count (0 = all cores)")
	overflowTarget := fs.Float64("overflow-target", 0,
		"acceptable predicted tile-overflow probability in [0,1); 0 keeps the conservative sizing")
	calibrate := fs.Bool("calibrate", false,
		"execute the chosen plan and report the measured-vs-predicted residual")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := d2t2.ParseKernel(*kernel)
	if err != nil {
		return err
	}
	inputs, err := loadInputs(files)
	if err != nil {
		return err
	}
	buffer := d2t2.DenseTileWords(*tile, *tile)
	ctx := context.Background()
	plan, err := d2t2.OptimizeCtx(ctx, k, inputs, d2t2.Options{
		BufferWords:    buffer,
		Analytic:       *analytic,
		Workers:        *workers,
		OverflowTarget: *overflowTarget,
		Calibrate:      *calibrate,
	})
	if err != nil {
		return err
	}
	fmt.Printf("kernel:    %s\n", k)
	fmt.Printf("buffer:    %d words (%d KiB)\n", buffer, buffer*4/1024)
	fmt.Printf("base tile: %d   RF: %g   TileFactor: %d\n", plan.BaseTile, plan.RF, plan.TileFactor)
	fmt.Printf("config:    %v\n", configString(plan.Config))
	fmt.Printf("predicted: %.3f MB\n", plan.PredictedMB)
	if rk := plan.Risk; rk != nil {
		fmt.Printf("risk:      target %g, percentile tile %d words, predicted overflow %.4f, utilization %.3f\n",
			rk.OverflowTarget, rk.PercentileTile, rk.PredictedOverflowRate, rk.BufferUtilization)
		if c := rk.Calibration; c != nil {
			fmt.Printf("calib:     predicted %.3f MB, measured %.3f MB, residual %.4f, bias %.4f, overflow %.4f\n",
				c.PredictedWords*4/(1<<20), c.MeasuredWords*4/(1<<20), c.Residual, c.BiasAfter, c.MeasuredOverflowRate)
		}
	}
	if *measure {
		rep, err := plan.MeasureCtx(ctx)
		if err != nil {
			return err
		}
		printReport(rep)
		if plan.Risk != nil && plan.Risk.OverflowTarget > 0 {
			fmt.Printf("measured:  overflow rate = %.4f\n", rep.OverflowRate())
		}
	}
	return nil
}

func configString(cfg d2t2.TileConfig) string {
	keys := make([]string, 0, len(cfg))
	for ix := range cfg {
		keys = append(keys, ix)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, ix := range keys {
		parts[i] = fmt.Sprintf("%s=%d", ix, cfg[ix])
	}
	return strings.Join(parts, ",")
}

func printReport(rep *d2t2.TrafficReport) {
	names := make([]string, 0, len(rep.InputWords))
	for n := range rep.InputWords {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("measured:  input %s = %.3f MB\n", n, float64(rep.InputWords[n])*4/(1<<20))
	}
	fmt.Printf("measured:  output = %.3f MB\n", float64(rep.OutputWords)*4/(1<<20))
	fmt.Printf("measured:  total = %.3f MB, %d tile iterations, %d MACs\n",
		rep.TotalMB(), rep.TileIterations, rep.MACs)
}

func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	files := inputFlags{}
	fs.Var(files, "input", "NAME=FILE (repeatable)")
	kernel := fs.String("kernel", "C(i,j) = A(i,k) * B(k,j) | order: i,k,j", "TIN kernel")
	config := fs.String("config", "", "tile config, e.g. i=512,k=32,j=512")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := d2t2.ParseKernel(*kernel)
	if err != nil {
		return err
	}
	cfg, err := parseConfig(*config)
	if err != nil {
		return err
	}
	if err := k.Validate(cfg); err != nil {
		return err
	}
	inputs, err := loadInputs(files)
	if err != nil {
		return err
	}
	rep, err := d2t2.MeasureConfig(context.Background(), k, inputs, cfg)
	if err != nil {
		return err
	}
	printReport(rep)
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	files := inputFlags{}
	fs.Var(files, "input", "NAME=FILE (repeatable)")
	kernel := fs.String("kernel", "C(i,j) = A(i,k) * B(k,j) | order: i,k,j", "TIN kernel")
	config := fs.String("config", "", "tile config, e.g. i=512,k=32,j=512")
	tile := fs.Int("tile", 128, "conservative tile the statistics are collected at")
	workers := fs.Int("workers", 0, "collection worker count (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := d2t2.ParseKernel(*kernel)
	if err != nil {
		return err
	}
	cfg, err := parseConfig(*config)
	if err != nil {
		return err
	}
	inputs, err := loadInputs(files)
	if err != nil {
		return err
	}
	sess := d2t2.NewSession(nil)
	sess.Workers = *workers
	pred, err := sess.PredictCtx(context.Background(), k, inputs, cfg, *tile)
	if err != nil {
		return err
	}
	fmt.Printf("predicted: %.3f MB total\n", pred)
	return nil
}

func cmdSpy(args []string) error {
	fs := flag.NewFlagSet("spy", flag.ExitOnError)
	files := inputFlags{}
	fs.Var(files, "input", "NAME=FILE (repeatable; FILE may be dataset:LABEL[:SCALE])")
	width := fs.Int("width", 72, "plot width in characters")
	height := fs.Int("height", 36, "plot height in characters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inputs, err := loadInputs(files)
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no -input given")
	}
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := inputs[name]
		fmt.Printf("%s: dims=%v nnz=%d\n", name, t.Dims(), t.NNZ())
		fmt.Println(t.Spy(*width, *height))
	}
	return nil
}
