// Dataflow: let the traffic model choose the dataflow order too. The
// paper assumes the accelerator's loop order is given (§2); since the
// model prices any order, sweeping permutations is a natural extension —
// shown here for SpMSpM on two structurally different matrices.
//
// Run with: go run ./examples/dataflow
package main

import (
	"context"
	"fmt"
	"log"

	"d2t2"
)

func main() {
	ctx := context.Background()
	buffer := d2t2.DenseTileWords(64, 64)
	kernel, err := d2t2.ParseKernel("C(i,j) = A(i,k) * B(k,j) | order: i,k,j")
	if err != nil {
		log.Fatal(err)
	}

	for _, label := range []string{"A", "I"} { // grid vs power-law
		a, err := d2t2.Dataset(label, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dataset %s (%d nonzeros):\n%s\n\n", label, a.NNZ(), a.Spy(56, 18))
		inputs := d2t2.Inputs{"A": a, "B": a.Transpose()}

		// Fixed Gustavson order.
		fixed, err := d2t2.OptimizeCtx(ctx, kernel, inputs, d2t2.Options{BufferWords: buffer})
		if err != nil {
			log.Fatal(err)
		}
		fixedRep, err := fixed.MeasureCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}

		// Model-chosen order over all six permutations.
		plan, order, err := d2t2.OptimizeDataflow(ctx, kernel, inputs, d2t2.Options{BufferWords: buffer})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := plan.MeasureCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("  fixed i->k->j : config %v, measured %.2f MB\n", fixed.Config, fixedRep.TotalMB())
		fmt.Printf("  model-chosen  : order %v, config %v, measured %.2f MB\n\n",
			order, plan.Config, rep.TotalMB())
	}
}
