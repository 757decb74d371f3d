package formats

import (
	"fmt"
	"sort"

	"d2t2/internal/checked"
	"d2t2/internal/tensor"
)

// CSR is a compressed-sparse-row matrix. Columns within a row are sorted.
// It serves as the reference format for correctness checks: the tiled
// execution backend's results are compared against CSR Gustavson matmul.
type CSR struct {
	R, C   int
	RowPtr []int32
	ColIdx []int32
	Vals   []float64
}

// BuildCSR constructs a CSR matrix from a COO matrix (duplicates
// summed). It returns an error when the input is not a matrix or its
// dimensions exceed the int32 coordinate width.
func BuildCSR(t *tensor.COO) (*CSR, error) {
	if t.Order() != 2 {
		return nil, fmt.Errorf("formats: BuildCSR requires a matrix, got order %d", t.Order())
	}
	if !checked.FitsInt32(t.Dims[0]) || !checked.FitsInt32(t.Dims[1]) {
		return nil, fmt.Errorf("formats: BuildCSR dimensions %dx%d exceed the int32 coordinate width", t.Dims[0], t.Dims[1])
	}
	src := t.Clone()
	src.Dedup() // sorts row-major
	m := &CSR{
		R:      src.Dims[0],
		C:      src.Dims[1],
		RowPtr: make([]int32, src.Dims[0]+1),
		ColIdx: make([]int32, src.NNZ()),
		Vals:   append([]float64(nil), src.Vals...),
	}
	for p := 0; p < src.NNZ(); p++ {
		m.RowPtr[src.Crds[0][p]+1]++
		m.ColIdx[p] = checked.Int32(src.Crds[1][p])
	}
	for i := 0; i < m.R; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// MustBuildCSR is BuildCSR that panics on error, for tests and fixed
// pipelines whose inputs are matrices by construction.
func MustBuildCSR(t *tensor.COO) *CSR {
	m, err := BuildCSR(t)
	if err != nil {
		panic(err)
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// Row returns the column indices and values of row i (shared slices).
func (m *CSR) Row(i int) ([]int32, []float64) {
	s, e := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[s:e], m.Vals[s:e]
}

// ToCOO converts back to coordinate format.
func (m *CSR) ToCOO() *tensor.COO {
	out := tensor.New(m.R, m.C)
	for i := 0; i < m.R; i++ {
		cols, vals := m.Row(i)
		for p := range cols {
			out.Append([]int{i, int(cols[p])}, vals[p])
		}
	}
	return out
}

// MulGustavson computes C = A×B with Gustavson's row-by-row algorithm.
// It is the reference SpMSpM used to validate the tiled backend.
func MulGustavson(a, b *CSR) (*CSR, error) {
	if a.C != b.R {
		return nil, fmt.Errorf("formats: dimension mismatch %dx%d times %dx%d", a.R, a.C, b.R, b.C)
	}
	out := &CSR{R: a.R, C: b.C, RowPtr: make([]int32, a.R+1)}
	acc := make(map[int32]float64)
	for i := 0; i < a.R; i++ {
		clear(acc)
		aCols, aVals := a.Row(i)
		for p, k := range aCols {
			bCols, bVals := b.Row(int(k))
			av := aVals[p]
			for q, j := range bCols {
				acc[j] += av * bVals[q]
			}
		}
		cols := make([]int32, 0, len(acc))
		for j := range acc {
			cols = append(cols, j)
		}
		sort.Slice(cols, func(x, y int) bool { return cols[x] < cols[y] })
		for _, j := range cols {
			out.ColIdx = append(out.ColIdx, j)
			out.Vals = append(out.Vals, acc[j])
		}
		out.RowPtr[i+1] = checked.Int32(len(out.Vals))
	}
	return out, nil
}
