// Package csfmut is a csfmutation fixture: it is loaded under an import
// path OUTSIDE internal/formats and internal/tiling, so every write to a
// format backing array must be flagged. Reads and writes to local
// slices must not be.
package csfmut

import (
	"d2t2/internal/formats"
	"d2t2/internal/tensor"
)

func mutate(csf *formats.CSF, csr *formats.CSR) int32 {
	csf.Seg[0][0] = 7                  // want "write to CSF.Seg"
	csf.Crd[0] = append(csf.Crd[0], 1) // want "write to CSF.Crd"
	csr.RowPtr[0]++                    // want "write to CSR.RowPtr"
	csr.ColIdx = nil                   // want "write to CSR.ColIdx"
	copy(csf.Vals, []float64{1})       // want "copy into CSF.Vals"

	// Reads of the same fields are fine.
	total := csf.Seg[0][0] + csr.RowPtr[0]

	// Writes to local slices and non-format types are fine.
	local := make([]int32, 4)
	local[0] = total
	return local[0]
}

func construct(t *tensor.COO) *formats.CSF {
	// Building through the package builders is the sanctioned path.
	return formats.Build(t, nil)
}
