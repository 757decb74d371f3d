// Opal: deploy D2T2-generated tilings to the Opal CGRA machine model
// (paper §6.4, Table 5): SpMSpM-ikj on the eight small SuiteSparse
// stand-ins with 2 KB memory tiles (32×32 conservative tiles), comparing
// modeled runtime against the Prescient square baseline.
//
// Run with: go run ./examples/opal
package main

import (
	"context"
	"fmt"
	"log"

	"d2t2"
)

func main() {
	ctx := context.Background()
	arch := d2t2.Opal()
	buffer := arch.InputBufferWords
	fmt.Printf("machine: %s (buffer %d words = %d KiB, %g words/cycle, %g MACs/cycle)\n\n",
		arch.Name, buffer, buffer*4/1024, arch.BandwidthWordsPerCycle, arch.MACsPerCycle)

	kernel := d2t2.Gustavson()
	matrices := []string{
		"bcsstm26", "bwm2000", "G33", "N_biocarta",
		"progas", "qiulp", "tols2000", "west2021",
	}

	fmt.Printf("%-12s %10s %8s %-22s %9s\n", "matrix", "dims", "nnz", "d2t2 config", "speedup")
	for _, name := range matrices {
		a, err := d2t2.Dataset(name, 1) // full size, as in the paper
		if err != nil {
			log.Fatal(err)
		}
		inputs := d2t2.Inputs{"A": a, "B": a.Transpose()}

		pres, err := d2t2.PrescientConfig(ctx, kernel, inputs, buffer)
		if err != nil {
			log.Fatal(err)
		}
		presRep, err := d2t2.MeasureConfig(ctx, kernel, inputs, pres)
		if err != nil {
			log.Fatal(err)
		}

		plan, err := d2t2.OptimizeCtx(ctx, kernel, inputs, d2t2.Options{BufferWords: buffer})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := plan.MeasureCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}

		dims := a.Dims()
		fmt.Printf("%-12s %4dx%-5d %8d %-22s %8.2fx\n",
			name, dims[0], dims[1], a.NNZ(),
			fmt.Sprintf("i=%d k=%d j=%d", plan.Config["i"], plan.Config["k"], plan.Config["j"]),
			d2t2.Speedup(presRep, rep, arch))
	}
	fmt.Println("\npaper reports 1.23-3.34x speedups (geomean ~2x) for the real matrices")
}
