package d2t2_test

import (
	"context"
	"fmt"

	"d2t2"
)

// ExampleParseKernel shows the tensor index notation the library accepts.
func ExampleParseKernel() {
	k, err := d2t2.ParseKernel("C(i,j) = A(i,k) * B(k,j) | order: i,k,j")
	if err != nil {
		panic(err)
	}
	fmt.Println(k)
	// Output: C(i,j) = A(i,k) * B(k,j) | order: i,k,j
}

// ExampleOptimizeCtx runs the full D2T2 pipeline on a tiny matrix.
func ExampleOptimizeCtx() {
	// An 8x8 diagonal matrix: every tile on the diagonal, nothing else.
	a := d2t2.NewTensor(8, 8)
	for i := 0; i < 8; i++ {
		a.Set([]int{i, i}, 1)
	}
	inputs := d2t2.Inputs{"A": a, "B": a.Transpose()}

	plan, err := d2t2.OptimizeCtx(context.Background(), d2t2.Gustavson(), inputs, d2t2.Options{
		BufferWords: d2t2.DenseTileWords(4, 4),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("base tile:", plan.BaseTile)

	report, err := plan.MeasureCtx(context.Background())
	if err != nil {
		panic(err)
	}
	// Diagonal x diagonal: every A tile is fetched exactly once.
	fmt.Println("A words:", report.InputWords["A"])
	// Output:
	// base tile: 4
	// A words: 38
}

// ExampleTensor_Spy renders the structure of a small banded matrix.
func ExampleTensor_Spy() {
	a := d2t2.NewTensor(8, 8)
	for i := 0; i < 8; i++ {
		a.Set([]int{i, i}, 1)
	}
	fmt.Println(a.Spy(8, 4))
	// Output:
	// +--------+
	// |..      |
	// |  ..    |
	// |    ..  |
	// |      ..|
	// +--------+
}

// ExampleMeasureConfig prices an explicit tile configuration.
func ExampleMeasureConfig() {
	a := d2t2.NewTensor(16, 16)
	for i := 0; i < 16; i++ {
		a.Set([]int{i, (i + 1) % 16}, float64(i))
	}
	inputs := d2t2.Inputs{"A": a, "B": a.Transpose()}
	rep, err := d2t2.MeasureConfig(context.Background(), d2t2.Gustavson(), inputs,
		d2t2.TileConfig{"i": 4, "k": 4, "j": 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("MACs:", rep.MACs)
	// Output: MACs: 16
}
