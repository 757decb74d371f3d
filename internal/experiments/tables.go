package experiments

import (
	"context"
	"fmt"

	"d2t2/internal/accel"
	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/optimizer"
	"d2t2/internal/schemes"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Table4 reproduces the higher-order kernel results (paper Table 4):
// TTM and MTTKRP-3 on the FROSTT/Facebook tensor stand-ins against
// random matrices (1% dense; 0.1% for the large tensor W), reporting
// D2T2's traffic improvement over the Conservative square scheme,
// measured with the TACO backend.
func Table4(ctx context.Context, s *Suite) (*Table, error) {
	tbl := &Table{
		ID:      "table4",
		Title:   "Traffic improvement over Conservative for TTM and MTTKRP-3 (Table 4)",
		Headers: []string{"Label", "Tensor", "TTM", "MTTKRP-3"},
	}
	for _, d := range gen.Tensors() {
		t3 := d.Build(s.Scale)
		density := 0.01
		if d.Label == "W" {
			density = 0.001
		}
		ttm, err := higherOrderImprovement(ctx, einsum.TTM(), t3, density, s, "ttm-"+d.Label)
		if err != nil {
			return nil, err
		}
		mttkrp, err := higherOrderImprovement(ctx, einsum.MTTKRP3(), t3, density, s, "mttkrp-"+d.Label)
		if err != nil {
			return nil, err
		}
		tbl.Append(d.Label, d.Name, ttm, mttkrp)
	}
	tbl.Notes = append(tbl.Notes,
		"paper: TTM 1.22-24.34x (avg 4.09x... largest for Facebook/Nips3), MTTKRP 1.05-34.31x (avg 5.56x)")
	return tbl, nil
}

// higherOrderInputs binds the kernel's order-3 operand to t3 and
// generates random matrix operands with dimensions compatible with the
// kernel's index variables (Table 3: random matrices sized from the
// tensor dimensions, at the given density).
func higherOrderInputs(e *einsum.Expr, t3 *tensor.COO, density float64, tag string) map[string]*tensor.COO {
	r := seededRand(tag)
	inputs := map[string]*tensor.COO{}
	dims := map[string]int{}
	for _, ref := range e.Inputs() {
		if len(ref.Indices) == 3 {
			inputs[ref.Name] = t3
			for a, ix := range ref.Indices {
				dims[ix] = t3.Dims[a]
			}
		}
	}
	maxDim := 0
	for _, d := range t3.Dims {
		if d > maxDim {
			maxDim = d
		}
	}
	for _, ref := range e.Inputs() {
		if len(ref.Indices) != 3 {
			d := make([]int, len(ref.Indices))
			for a, ix := range ref.Indices {
				if v, ok := dims[ix]; ok {
					d[a] = v
				} else {
					// Free matrix dimension (e.g. TTM's k): max(T1,T2).
					d[a] = maxDim
					dims[ix] = d[a]
				}
			}
			nnz := int(density * float64(d[0]) * float64(d[1]))
			if nnz < 16 {
				nnz = 16
			}
			inputs[ref.Name] = gen.UniformRandom(r, d[0], d[1], nnz)
		}
	}
	return inputs
}

// higherOrderImprovement runs one tensor kernel with D2T2 and
// Conservative tiling and returns the traffic ratio.
func higherOrderImprovement(ctx context.Context, e *einsum.Expr, t3 *tensor.COO, density float64, s *Suite, tag string) (float64, error) {
	inputs := higherOrderInputs(e, t3, density, tag)

	// Buffer: a dense order-3 conservative tile of the suite's 3-d side.
	side := s.TileSide / 4
	if side < 4 {
		side = 4
	}
	buffer := tiling.DenseFootprintWords([]int{side, side, side})

	consCfg := schemes.Conservative(e, buffer)
	cons, err := measureConfig(ctx, s, e, inputs, consCfg, nil)
	if err != nil {
		return 0, err
	}
	opt, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{BufferWords: buffer})
	if err != nil {
		return 0, err
	}
	d2, err := measureConfig(ctx, s, e, inputs, opt.Config, nil)
	if err != nil {
		return 0, err
	}
	return accel.TrafficImprovement(&cons.Traffic, &d2.Traffic), nil
}

// Table5 reproduces the Opal deployment experiment (paper Table 5):
// SpMSpM-ikj on eight small SuiteSparse matrices at full size, with
// Opal's 2 KB memory tiles (32×32 conservative tiles), comparing
// D2T2-generated configurations against the Prescient tiling that was
// Opal's previous hand-tuned optimum. Speedups use the Opal machine
// model.
func Table5(ctx context.Context) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	arch := accel.Opal()
	buffer := arch.InputBufferWords
	tbl := &Table{
		ID:      "table5",
		Title:   "D2T2 speedup over Prescient on Opal, SpMSpM-ikj (Table 5)",
		Headers: []string{"Matrix", "Dimension", "Nonzeros", "Speedup"},
	}
	var sps []float64
	for _, d := range gen.Table5Matrices() {
		a := d.Build(1)
		inputs := map[string]*tensor.COO{"A": a, "B": a.Transpose()}
		presCfg, err := schemes.Prescient(ctx, e, inputs, buffer)
		if err != nil {
			return nil, err
		}
		pres, err := measureConfig(ctx, nil, e, inputs, presCfg, nil)
		if err != nil {
			return nil, err
		}
		opt, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{BufferWords: buffer})
		if err != nil {
			return nil, err
		}
		d2, err := measureConfig(ctx, nil, e, inputs, opt.Config, nil)
		if err != nil {
			return nil, err
		}
		sp := accel.Speedup(&pres.Traffic, &d2.Traffic, arch)
		sps = append(sps, sp)
		tbl.Append(d.Label, fmt.Sprintf("%dx%d", a.Dims[0], a.Dims[1]), a.NNZ(), sp)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"geomean %.2fx (paper: 1.23-3.34x, geomean ~2x)", geomean(sps)))
	return tbl, nil
}
