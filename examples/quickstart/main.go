// Quickstart: optimize the tiling of a sparse matrix multiplication with
// D2T2 and compare its measured memory traffic against the Conservative
// and Prescient baselines on an Extensor-like accelerator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"d2t2"
)

func main() {
	ctx := context.Background()

	// A ~5.9k x 5.9k circuit-like matrix (scircuit stand-in, scale 29).
	a, err := d2t2.Dataset("E", 29)
	if err != nil {
		log.Fatal(err)
	}
	dims := a.Dims()
	fmt.Printf("input: %dx%d sparse matrix, %d nonzeros\n", dims[0], dims[1], a.NNZ())

	// Gustavson's SpMSpM: C(i,j) = Σ_k A(i,k)·B(k,j), dataflow i→k→j.
	kernel := d2t2.Gustavson()
	inputs := d2t2.Inputs{"A": a, "B": a.Transpose()}

	// Target machine: a PE buffer that holds one dense 128x128 CSF tile.
	arch := d2t2.Extensor()
	buffer := arch.InputBufferWords
	fmt.Printf("kernel: %s\nbuffer: %d KiB\n\n", kernel, buffer*4/1024)

	// 1. The D2T2 pipeline: conservative tiling → statistics → shape
	//    search → conservative size growth.
	plan, err := d2t2.OptimizeCtx(ctx, kernel, inputs, d2t2.Options{BufferWords: buffer})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("D2T2 config: %v (base tile %d, RF %g)\n", plan.Config, plan.BaseTile, plan.RF)
	fmt.Printf("predicted traffic: %.2f MB\n\n", plan.PredictedMB)

	// 2. Execute the kernel with each scheme and measure exact traffic.
	d2Rep, err := plan.MeasureCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	cons := d2t2.ConservativeConfig(kernel, buffer)
	consRep, err := d2t2.MeasureConfig(ctx, kernel, inputs, cons)
	if err != nil {
		log.Fatal(err)
	}
	pres, err := d2t2.PrescientConfig(ctx, kernel, inputs, buffer)
	if err != nil {
		log.Fatal(err)
	}
	presRep, err := d2t2.MeasureConfig(ctx, kernel, inputs, pres)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %-24s %12s %12s\n", "scheme", "config", "traffic MB", "speedup")
	row := func(name string, cfg d2t2.TileConfig, rep *d2t2.TrafficReport) {
		fmt.Printf("%-14s %-24s %12.2f %11.2fx\n",
			name, short(cfg), rep.TotalMB(), d2t2.Speedup(consRep, rep, arch))
	}
	row("conservative", cons, consRep)
	row("prescient", pres, presRep)
	row("d2t2", plan.Config, d2Rep)

	// 3. The result tensor itself is available too.
	out, _, err := plan.Execute(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nC = A·Aᵀ has %d nonzeros\n", out.NNZ())
}

func short(cfg d2t2.TileConfig) string {
	return fmt.Sprintf("i=%d k=%d j=%d", cfg["i"], cfg["k"], cfg["j"])
}
