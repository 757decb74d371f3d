package formats

import (
	"testing"

	"d2t2/internal/tensor"
)

// The matrix builder returns errors (not panics) for non-matrix input,
// per the panicpolicy gate.
func TestBuildersRejectNonMatrix(t *testing.T) {
	v := tensor.New(4) // order-1 tensor
	if _, err := BuildCSR(v); err == nil {
		t.Fatal("BuildCSR accepted an order-1 tensor")
	}
	cube := tensor.New(2, 2, 2)
	if _, err := BuildCSR(cube); err == nil {
		t.Fatal("BuildCSR accepted an order-3 tensor")
	}
}

func TestMustBuildCSRPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuildCSR did not panic on non-matrix input")
		}
	}()
	MustBuildCSR(tensor.New(4))
}
