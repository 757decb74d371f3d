// Package hierarchy extends D2T2 to a two-level memory hierarchy — the
// structure of the Opal CGRA (§6.4: a 1.75 MB global buffer feeding 2 KB
// memory tiles). The tensor is tiled twice:
//
//	DRAM ── L2 tiles (fit the global buffer) ── L1 tiles (fit a PE buffer)
//
// The L2 configuration is optimized by the ordinary D2T2 pipeline
// against DRAM traffic. The L1 configuration is optimized on the
// heaviest live L2 tile pair (the densest subproblem the PEs will see)
// and reused for every pair, matching how a static two-level schedule is
// deployed. Measurement executes both levels: the L2 loop nest for DRAM
// traffic, and the L1 loop nest inside every live L2 pair for
// global-buffer traffic.
//
// The package supports two-operand single-contraction matrix kernels
// (SpMSpM in any dataflow), the scope of the paper's Opal deployment.
package hierarchy

import (
	"context"
	"fmt"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Options sizes the two buffer levels in words.
type Options struct {
	L2BufferWords int // global buffer
	L1BufferWords int // per-PE buffer
}

// Plan is a two-level tiling configuration.
type Plan struct {
	L2 model.Config
	L1 model.Config
	// L2Result retains the full optimizer output for the outer level.
	L2Result *optimizer.Result
}

// Report is the measured two-level traffic.
type Report struct {
	// DRAM is the off-chip traffic of the L2 schedule.
	DRAM exec.Traffic
	// Global is the global-buffer→PE traffic summed over all live L2
	// tile pairs executing the L1 schedule.
	Global exec.Traffic
	// Pairs is the number of live L2 tile pairs executed.
	Pairs int
}

// Optimize produces a two-level plan for kernel e.
func Optimize(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, opts Options) (*Plan, error) {
	if opts.L2BufferWords <= 0 || opts.L1BufferWords <= 0 {
		return nil, fmt.Errorf("hierarchy: both buffer sizes must be positive")
	}
	if opts.L1BufferWords >= opts.L2BufferWords {
		return nil, fmt.Errorf("hierarchy: L1 buffer must be smaller than L2")
	}
	names, _, err := kernelShape(e)
	if err != nil {
		return nil, err
	}

	l2, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{BufferWords: opts.L2BufferWords})
	if err != nil {
		return nil, err
	}

	// Pick the heaviest live L2 pair as the L1 optimization subproblem.
	tiled, err := optimizer.TileAllCtx(ctx, e, inputs, l2.Config, 0)
	if err != nil {
		return nil, err
	}
	subA, subB, err := heaviestPair(e, tiled[names[0]], tiled[names[1]])
	if err != nil {
		return nil, err
	}
	subInputs := map[string]*tensor.COO{names[0]: subA, names[1]: subB}
	l1, err := optimizer.OptimizeCtx(ctx, e, subInputs, optimizer.Options{BufferWords: opts.L1BufferWords})
	if err != nil {
		return nil, err
	}
	return &Plan{L2: l2.Config, L1: l1.Config, L2Result: l2}, nil
}

// kernelShape validates the kernel and returns the two operand names and
// the contracted index.
func kernelShape(e *einsum.Expr) ([2]string, string, error) {
	var names [2]string
	if err := e.Validate(); err != nil {
		return names, "", err
	}
	prods := e.ProductsIdx()
	ins := e.Inputs()
	if len(prods) != 1 || len(prods[0]) != 2 {
		return names, "", fmt.Errorf("hierarchy: two-operand product kernels only")
	}
	contracted := e.Contracted()
	if len(contracted) != 1 {
		return names, "", fmt.Errorf("hierarchy: one contracted index required")
	}
	for i, ri := range prods[0] {
		if len(ins[ri].Indices) != 2 {
			return names, "", fmt.Errorf("hierarchy: %s is not a matrix", ins[ri])
		}
		names[i] = ins[ri].Name
	}
	return names, contracted[0], nil
}

// heaviestPair extracts the sub-tensors of the L2 tile pair with the
// largest combined footprint among pairs sharing a contracted slice.
func heaviestPair(e *einsum.Expr, ta, tb *tiling.TiledTensor) (*tensor.COO, *tensor.COO, error) {
	refs := e.Inputs()
	axA := contractedAxis(e, refs[0])
	axB := contractedAxis(e, refs[1])
	if axA < 0 || axB < 0 {
		return nil, nil, fmt.Errorf("hierarchy: contracted axis missing")
	}
	bySlice := make(map[int]*tiling.Tile)
	for _, tile := range tb.Tiles {
		s := tile.Outer[axB]
		if cur := bySlice[s]; cur == nil || tile.Footprint > cur.Footprint {
			bySlice[s] = tile
		}
	}
	var bestA, bestB *tiling.Tile
	best := -1
	for _, tile := range ta.Tiles {
		mate := bySlice[tile.Outer[axA]]
		if mate == nil {
			continue
		}
		if w := tile.Footprint + mate.Footprint; w > best {
			best, bestA, bestB = w, tile, mate
		}
	}
	if bestA == nil {
		return nil, nil, fmt.Errorf("hierarchy: no live L2 tile pair")
	}
	return tileToCOO(ta, bestA), tileToCOO(tb, bestB), nil
}

func contractedAxis(e *einsum.Expr, ref einsum.Ref) int {
	contracted := e.Contracted()[0]
	for a, ix := range ref.Indices {
		if ix == contracted {
			return a
		}
	}
	return -1
}

// tileToCOO materializes a tile's contents as a standalone tensor whose
// dimensions are the tile dimensions.
func tileToCOO(tt *tiling.TiledTensor, tile *tiling.Tile) *tensor.COO {
	sub := tile.CSF.ToCOO()
	out := tensor.New(tt.TileDims...)
	coord := make([]int, len(tt.TileDims))
	for p := 0; p < sub.NNZ(); p++ {
		for a := range coord {
			coord[a] = sub.Crds[a][p]
		}
		out.Append(coord, sub.Vals[p])
	}
	return out
}

// Measure executes the two-level plan: the L2 schedule against DRAM and
// the L1 schedule inside every live L2 pair against the global buffer.
func Measure(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, plan *Plan) (*Report, error) {
	names, _, err := kernelShape(e)
	if err != nil {
		return nil, err
	}
	tiled, err := optimizer.TileAllCtx(ctx, e, inputs, plan.L2, 0)
	if err != nil {
		return nil, err
	}
	dram, err := exec.MeasureCtx(ctx, e, tiled, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{DRAM: dram.Traffic, Global: exec.Traffic{Input: make(map[string]int64)}}

	refs := e.Inputs()
	ta, tb := tiled[names[0]], tiled[names[1]]
	axA, axB := contractedAxis(e, refs[0]), contractedAxis(e, refs[1])
	byB := make(map[int][]*tiling.Tile)
	for _, tile := range tb.Tiles {
		byB[tile.Outer[axB]] = append(byB[tile.Outer[axB]], tile)
	}
	for _, tileA := range ta.Tiles {
		for _, tileB := range byB[tileA.Outer[axA]] {
			subInputs := map[string]*tensor.COO{
				names[0]: tileToCOO(ta, tileA),
				names[1]: tileToCOO(tb, tileB),
			}
			subTiled, err := optimizer.TileAllCtx(ctx, e, subInputs, plan.L1, 0)
			if err != nil {
				return nil, err
			}
			res, err := exec.MeasureCtx(ctx, e, subTiled, nil)
			if err != nil {
				return nil, err
			}
			for name, w := range res.Input {
				rep.Global.Input[name] += w
			}
			rep.Global.Output += res.Output
			rep.Global.OutputWrites += res.OutputWrites
			rep.Global.TileIterations += res.TileIterations
			rep.Global.MACs += res.MACs
			rep.Pairs++
		}
	}
	return rep, nil
}
