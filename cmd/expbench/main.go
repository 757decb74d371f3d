// Command expbench regenerates every table and figure of the paper's
// evaluation (DESIGN.md §6) on the synthetic dataset suite and prints
// them as text tables. Results for the default configuration are
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	expbench                         # full suite (several minutes)
//	expbench -quick                  # fast subset
//	expbench -exp fig6b,fig6c        # selected experiments
//	expbench -scale 64 -tile 64      # custom dataset scale / buffer
//	expbench -labels A,C,E           # restrict matrices
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"d2t2/internal/buildinfo"
	"d2t2/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "fast subset (small scale, few matrices)")
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	scale := flag.Int("scale", 0, "dataset scale divisor (0 = suite default)")
	tile := flag.Int("tile", 0, "conservative tile side (0 = suite default)")
	labels := flag.String("labels", "", "comma-separated matrix labels (default: suite)")
	workers := flag.Int("workers", 0, "exec + cold-pipeline worker count (0 = all cores; results are identical for any value)")
	format := flag.String("format", "text", "output format: text, md or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("expbench", buildinfo.Version)
		return
	}

	suite := experiments.DefaultSuite()
	if *quick {
		suite = experiments.QuickSuite()
	}
	if *scale > 0 {
		suite.Scale = *scale
	}
	if *tile > 0 {
		suite.TileSide = *tile
	}
	if *labels != "" {
		suite.Labels = strings.Split(*labels, ",")
	}
	if *workers > 0 {
		suite.Workers = *workers
	}

	var selected []experiments.Experiment
	if *exp == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "expbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("suite: scale=%d tile=%d buffer=%d words (%d KiB) matrices=%v\n\n",
		suite.Scale, suite.TileSide, suite.BufferWords(), suite.BufferWords()*4/1024,
		suite.MatrixLabels())

	failed := 0
	for _, e := range selected {
		start := time.Now()
		tbl, err := e.Run(context.Background(), suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		switch *format {
		case "md":
			fmt.Println(tbl.Markdown())
		case "json":
			fmt.Println(tbl.JSON())
		default:
			fmt.Println(tbl.Format())
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
