// Tensorops: tile higher-order tensor kernels — TTM and MTTKRP — with
// D2T2 and compare against the Conservative square scheme, mirroring the
// paper's Table 4 workloads (FROSTT-style tensor × random matrices).
//
// Run with: go run ./examples/tensorops
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"d2t2"
)

func main() {
	// Nips3 stand-in at scale 48: an order-3 tensor.
	t3, err := d2t2.Dataset("W", 48)
	if err != nil {
		log.Fatal(err)
	}
	dims := t3.Dims()
	fmt.Printf("tensor: %dx%dx%d, %d nonzeros\n\n", dims[0], dims[1], dims[2], t3.NNZ())

	// Buffer sized for a dense 16^3 CSF tile.
	buffer := d2t2.DenseTileWords(16, 16, 16)

	// --- TTM: X(i,j,k) = Σ_l C(i,j,l)·B(k,l), order i→j→l→k ------------
	ttm := d2t2.TTM()
	maxDim := max(dims[0], dims[1])
	b := randomMatrix(1, maxDim, dims[2], 0.01)
	runKernel("TTM", ttm, d2t2.Inputs{"C": t3, "B": b}, buffer)

	// --- MTTKRP: D(i,j) = Σ_{k,l} A(i,k,l)·B(j,k)·C(j,l), i→k→l→j ------
	mttkrp := d2t2.MTTKRP()
	bm := randomMatrix(2, dims[0], dims[1], 0.01)
	cm := randomMatrix(3, dims[0], dims[2], 0.01)
	runKernel("MTTKRP-3", mttkrp, d2t2.Inputs{"A": t3, "B": bm, "C": cm}, buffer)
}

func runKernel(name string, k *d2t2.Kernel, inputs d2t2.Inputs, buffer int) {
	ctx := context.Background()
	fmt.Printf("%s: %s\n", name, k)
	cons := d2t2.ConservativeConfig(k, buffer)
	consRep, err := d2t2.MeasureConfig(ctx, k, inputs, cons)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := d2t2.OptimizeCtx(ctx, k, inputs, d2t2.Options{BufferWords: buffer})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := plan.MeasureCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  conservative: %v -> %.2f MB\n", cons, consRep.TotalMB())
	fmt.Printf("  d2t2:         %v -> %.2f MB\n", plan.Config, rep.TotalMB())
	fmt.Printf("  traffic improvement: %.2fx\n\n",
		float64(consRep.TotalWords())/float64(rep.TotalWords()))
}

// randomMatrix builds a uniformly random matrix with the given density.
func randomMatrix(seed int64, rows, cols int, density float64) *d2t2.Tensor {
	r := rand.New(rand.NewSource(seed))
	t := d2t2.NewTensor(rows, cols)
	nnz := int(density * float64(rows) * float64(cols))
	if nnz < 16 {
		nnz = 16
	}
	for i := 0; i < nnz; i++ {
		t.Set([]int{r.Intn(rows), r.Intn(cols)}, 1+r.Float64())
	}
	t.Normalize()
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
