package experiments

import (
	"context"
	"fmt"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/optimizer"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// OverbookTargets are the overflow-probability sweep points ExtOverbook
// reports (`go run ./cmd/expbench -quick -exp ext-overbook`). 0 is the
// conservative baseline every other point is compared against.
var OverbookTargets = []float64{0, 0.01, 0.05, 0.1}

// OverbookPoint is one (kernel, target) measurement of the sweep. All
// points of one kernel are measured under the same buffer model
// (InputBufferWords = the optimization budget, OverflowExtra = 1), so
// overflow re-streaming is priced into TrafficMB.
type OverbookPoint struct {
	Kernel     string  `json:"kernel"`
	Target     float64 `json:"target"`
	TileFactor int     `json:"tileFactor"`
	TrafficMB  float64 `json:"trafficMB"`
	// OverflowRate is the measured OverflowFetches / InputFetches;
	// PredictedRate the model's estimate (0 at the conservative point).
	OverflowRate  float64 `json:"overflowRate"`
	PredictedRate float64 `json:"predictedRate"`
	// Utilization is the measured mean words per input-tile fetch over
	// the buffer capacity — the quantity overbooking exists to raise.
	Utilization float64 `json:"utilization"`
}

// overbookCase is one paper kernel bound to suite-scaled inputs.
type overbookCase struct {
	name   string
	e      *einsum.Expr
	inputs map[string]*tensor.COO
	buffer int
}

// overbookCases builds the four paper kernels of the sweep: SpMSpM-ikj
// and SDDMM on the suite's first matrix label, TTM and MTTKRP-3 on the
// first order-3 tensor stand-in with Table 3's random matrix operands.
func overbookCases(s *Suite) ([]overbookCase, error) {
	label := s.MatrixLabels()[0]
	spmspm := einsum.SpMSpMIKJ()
	spmspmIn, err := s.aat(label, spmspm)
	if err != nil {
		return nil, err
	}

	sddmm := einsum.SDDMM()
	m, err := s.Matrix(label)
	if err != nil {
		return nil, err
	}
	maskNNZ := m.Dims[0] * m.Dims[0] / 100
	if maskNNZ < 16 {
		maskNNZ = 16
	}
	sddmmIn := map[string]*tensor.COO{
		"S": gen.UniformRandom(seededRand("overbook-sddmm-"+label), m.Dims[0], m.Dims[0], maskNNZ),
		"A": m,
		"B": m.Transpose(),
	}

	t3 := gen.Tensors()[0].Build(s.Scale)
	side := s.TileSide / 4
	if side < 4 {
		side = 4
	}
	buffer3 := tiling.DenseFootprintWords([]int{side, side, side})

	return []overbookCase{
		{"SpMSpM-ikj", spmspm, spmspmIn, s.BufferWords()},
		{"TTM", einsum.TTM(), higherOrderInputs(einsum.TTM(), t3, 0.01, "overbook-ttm"), buffer3},
		{"MTTKRP-3", einsum.MTTKRP3(), higherOrderInputs(einsum.MTTKRP3(), t3, 0.01, "overbook-mttkrp"), buffer3},
		{"SDDMM", sddmm, sddmmIn, s.BufferWords()},
	}, nil
}

// OverbookSweep runs the risk/traffic sweep: each kernel optimized at
// every OverbookTargets point and executed under the buffer model it was
// costed with. cmd/expbench's bench artifact and the ext-overbook table
// both consume these points.
func OverbookSweep(ctx context.Context, s *Suite) ([]OverbookPoint, error) {
	cases, err := overbookCases(s)
	if err != nil {
		return nil, err
	}
	var out []OverbookPoint
	for _, c := range cases {
		for _, target := range OverbookTargets {
			res, err := optimizer.OptimizeCtx(ctx, c.e, c.inputs, optimizer.Options{
				BufferWords:    c.buffer,
				OverflowTarget: target,
			})
			if err != nil {
				return nil, err
			}
			m, err := measureConfig(ctx, s, c.e, c.inputs, res.Config, &exec.Options{
				InputBufferWords: c.buffer,
				OverflowExtra:    1,
			})
			if err != nil {
				return nil, err
			}
			pt := OverbookPoint{
				Kernel:     c.name,
				Target:     target,
				TileFactor: res.TileFactor,
				TrafficMB:  mb(m.Total()),
			}
			if m.InputFetches > 0 {
				pt.OverflowRate = float64(m.OverflowFetches) / float64(m.InputFetches)
				pt.Utilization = float64(m.InputTotal()) / float64(m.InputFetches) / float64(c.buffer)
			}
			if res.Risk != nil {
				pt.PredictedRate = res.Risk.PredictedOverflowRate
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// ExtOverbook reports the risk-aware overbooking extension (DESIGN.md
// §18): traffic, measured overflow rate and buffer utilization across
// the OverflowTarget sweep on the four paper kernels. Rows with target 0
// are the conservative baseline.
func ExtOverbook(ctx context.Context, s *Suite) (*Table, error) {
	pts, err := OverbookSweep(ctx, s)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      "ext-overbook",
		Title:   "Risk-aware overbooking: traffic vs overflow target (DESIGN.md §18)",
		Headers: []string{"Kernel", "Target", "TileFactor", "TrafficMB", "OverflowRate", "PredictedRate", "Utilization"},
	}
	for _, p := range pts {
		tbl.Append(p.Kernel, fmt.Sprintf("%g", p.Target), p.TileFactor,
			p.TrafficMB, fmt.Sprintf("%.4f", p.OverflowRate),
			fmt.Sprintf("%.4f", p.PredictedRate), fmt.Sprintf("%.3f", p.Utilization))
	}
	tbl.Notes = append(tbl.Notes,
		"all points of one kernel measured under the same buffer model (OverflowExtra=1), so overflow re-streaming is priced into TrafficMB")
	return tbl, nil
}
