// Hierarchy: tile for a two-level memory system — a large global buffer
// feeding small per-PE buffers, the Opal CGRA structure of the paper's
// §6.4. D2T2 optimizes each level: L2 tiles minimize DRAM traffic, L1
// tiles minimize global-buffer traffic inside every live L2 tile pair.
//
// Run with: go run ./examples/hierarchy
package main

import (
	"context"
	"fmt"
	"log"

	"d2t2"
)

func main() {
	ctx := context.Background()
	a, err := d2t2.Dataset("N", 8) // bcsstk17 stand-in (FEM stiffness)
	if err != nil {
		log.Fatal(err)
	}
	dims := a.Dims()
	fmt.Printf("input: %dx%d, %d nonzeros\n", dims[0], dims[1], a.NNZ())

	kernel := d2t2.Gustavson()
	inputs := d2t2.Inputs{"A": a, "B": a.Transpose()}
	l2 := d2t2.DenseTileWords(256, 256) // global buffer
	l1 := d2t2.DenseTileWords(32, 32)   // PE memory tile (Opal's 2 KB class)
	fmt.Printf("buffers: global %d KiB, PE %d KiB\n\n", l2*4/1024, l1*4/1024)

	plan, err := d2t2.OptimizeHierarchy(ctx, kernel, inputs, l2, l1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("L2 config (DRAM -> global): %v\n", plan.L2)
	fmt.Printf("L1 config (global -> PE):   %v\n\n", plan.L1)

	rep, err := plan.Measure(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DRAM traffic:   %8.2f MB (%d L2 tile pairs)\n", rep.DRAM.TotalMB(), rep.Pairs)
	fmt.Printf("global traffic: %8.2f MB\n\n", rep.Global.TotalMB())

	// Compare against tiling DRAM directly at PE granularity.
	flat, err := d2t2.OptimizeCtx(ctx, kernel, inputs, d2t2.Options{BufferWords: l1})
	if err != nil {
		log.Fatal(err)
	}
	flatRep, err := flat.MeasureCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flat PE-granularity DRAM traffic: %.2f MB\n", flatRep.TotalMB())
	fmt.Printf("two-level DRAM reduction: %.2fx\n",
		flatRep.TotalMB()/rep.DRAM.TotalMB())
}
