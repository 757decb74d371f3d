// Modelstudy: exercise the probabilistic traffic model directly — sweep
// tile shapes (reorder factors) for SpMSpM on matrices with different
// structure and compare predicted against measured traffic, the §5.3
// validation workflow of the paper.
//
// Run with: go run ./examples/modelstudy
package main

import (
	"context"
	"fmt"
	"log"

	"d2t2"
)

func main() {
	ctx := context.Background()
	kernel := d2t2.Gustavson()
	tile := 64

	for _, label := range []string{"A", "Q"} { // grid (correlated) vs uniform
		a, err := d2t2.Dataset(label, 64)
		if err != nil {
			log.Fatal(err)
		}
		inputs := d2t2.Inputs{"A": a, "B": a.Transpose()}
		st, err := d2t2.CollectStats(ctx, a, tile)
		if err != nil {
			log.Fatal(err)
		}
		dims := a.Dims()
		fmt.Printf("dataset %s: %dx%d nnz=%d  SizeTile=%.0f MaxTile=%d CorrSum(k)=%.2f\n",
			label, dims[0], dims[1], a.NNZ(), st.SizeTile, st.MaxTile, st.CorrSums[1])

		fmt.Printf("  %-22s %14s %14s %8s\n", "config (RF sweep)", "predicted MB", "measured MB", "err%")
		for _, rf := range []int{1, 2, 4, 8} {
			cfg := d2t2.TileConfig{"i": tile * rf, "k": tile / rf, "j": tile * rf}
			pred, err := d2t2.PredictConfig(ctx, kernel, inputs, cfg, tile)
			if err != nil {
				log.Fatal(err)
			}
			rep, err := d2t2.MeasureConfig(ctx, kernel, inputs, cfg)
			if err != nil {
				log.Fatal(err)
			}
			meas := rep.TotalMB()
			fmt.Printf("  i=%-5d k=%-4d j=%-5d %14.3f %14.3f %7.1f%%\n",
				cfg["i"], cfg["k"], cfg["j"], pred, meas, 100*(pred-meas)/meas)
		}
		fmt.Println()
	}
	fmt.Println("the model tracks shape trends; absolute error is largest for")
	fmt.Println("correlated A×Aᵀ operands, as the paper's §5.3 reports")
}
