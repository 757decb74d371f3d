package d2t2

import (
	"context"

	"d2t2/internal/hierarchy"
	"d2t2/internal/model"
)

// HierarchyPlan is a two-level tiling configuration: L2 tiles sized for
// a global buffer, L1 tiles sized for a per-PE buffer (the Opal CGRA
// memory structure of the paper's §6.4).
type HierarchyPlan struct {
	L2 TileConfig
	L1 TileConfig

	kernel *Kernel
	inputs Inputs
	plan   *hierarchy.Plan
}

// OptimizeHierarchy runs D2T2 at both memory levels of a two-level
// hierarchy: the L2 configuration minimizes DRAM traffic; the L1
// configuration is optimized on the heaviest live L2 tile pair and
// reused everywhere. Supports two-operand single-contraction matrix
// kernels (SpMSpM in any dataflow).
func OptimizeHierarchy(ctx context.Context, k *Kernel, inputs Inputs, l2BufferWords, l1BufferWords int) (*HierarchyPlan, error) {
	plan, err := hierarchy.Optimize(ctx, k.expr, inputs.lower(), hierarchy.Options{
		L2BufferWords: l2BufferWords,
		L1BufferWords: l1BufferWords,
	})
	if err != nil {
		return nil, err
	}
	out := &HierarchyPlan{
		L2:     make(TileConfig, len(plan.L2)),
		L1:     make(TileConfig, len(plan.L1)),
		kernel: k,
		inputs: inputs,
		plan:   plan,
	}
	for ix, v := range plan.L2 {
		out.L2[ix] = v
	}
	for ix, v := range plan.L1 {
		out.L1[ix] = v
	}
	return out, nil
}

// HierarchyReport is the measured two-level traffic: DRAM→global for the
// L2 schedule and global→PE summed over every live L2 tile pair.
type HierarchyReport struct {
	DRAM   *TrafficReport
	Global *TrafficReport
	Pairs  int
}

// Measure executes the two-level plan and reports traffic at each level.
func (p *HierarchyPlan) Measure(ctx context.Context) (*HierarchyReport, error) {
	lowered := hierarchy.Plan{
		L2: model.Config(p.L2), L1: model.Config(p.L1), L2Result: p.plan.L2Result,
	}
	rep, err := hierarchy.Measure(ctx, p.kernel.expr, p.inputs.lower(), &lowered)
	if err != nil {
		return nil, err
	}
	return &HierarchyReport{
		DRAM:   newReport(&rep.DRAM),
		Global: newReport(&rep.Global),
		Pairs:  rep.Pairs,
	}, nil
}
