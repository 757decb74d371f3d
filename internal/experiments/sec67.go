package experiments

import (
	"context"
	"fmt"

	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/optimizer"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Sec67 reproduces the "performance benefits without retiling" study of
// §6.7: instead of retiling the raw data with D2T2's configuration, the
// original conservative tiles are *packed* into super-tiles whose
// dimensions are the D2T2 configuration normalized to multiples of the
// base tile. Each packed tile is indexed through a small directory, so
// it carries extra metadata and cannot reshape below the base
// granularity. Rows report packed-tiles traffic relative to fully
// retiled D2T2 for two base tile sizes; the paper finds a 31% average
// drop at 128×128 base tiles and only 11% at 32×32.
func Sec67(ctx context.Context, s *Suite) (*Table, error) {
	e := einsum.SpMSpMIKJ()
	tbl := &Table{
		ID:      "sec67",
		Title:   "Packed tiles (no second tiling pass) vs retiled D2T2 (§6.7)",
		Headers: []string{"Matrix", "PackedVsD2T2(base)", "PackedVsD2T2(base/4)"},
	}
	var ratioBig, ratioSmall []float64
	for _, label := range s.MatrixLabels() {
		inputs, err := s.aat(label, e)
		if err != nil {
			return nil, err
		}
		big, err := packedRatio(ctx, s, e, inputs, s.BufferWords(), s.TileSide)
		if err != nil {
			return nil, err
		}
		small, err := packedRatio(ctx, s, e, inputs, s.BufferWords(), s.TileSide/4)
		if err != nil {
			return nil, err
		}
		ratioBig = append(ratioBig, big)
		ratioSmall = append(ratioSmall, small)
		tbl.Append(label, big, small)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"mean packed/retiled traffic: %.2fx at base, %.2fx at base/4 (paper: 31%% drop at 128, 11%% at 32)",
		mean(ratioBig), mean(ratioSmall)))
	return tbl, nil
}

// packedRatio optimizes with base tiles of the given side, then measures
// (a) fully retiled D2T2 and (b) packed original tiles at the D2T2
// configuration normalized to base multiples, returning traffic(b)/(a).
func packedRatio(ctx context.Context, s *Suite, e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords, baseSide int) (float64, error) {
	opt, err := optimizer.OptimizeCtx(ctx, e, inputs, optimizer.Options{
		BufferWords: bufferWords,
		BaseTile:    baseSide,
	})
	if err != nil {
		return 0, err
	}
	retiledRes, err := measureConfig(ctx, s, e, inputs, opt.Config, nil)
	if err != nil {
		return 0, err
	}

	// Normalize the D2T2 configuration to multiples of the base tile and
	// pack the original conservative tiles accordingly.
	packed := make(map[string]*tiling.TiledTensor)
	for _, ref := range e.Inputs() {
		dims := make([]int, len(ref.Indices))
		for a := range dims {
			dims[a] = opt.BaseTile
		}
		base, err := tiling.NewCtx(ctx, inputs[ref.Name], dims, e.LevelOrder(ref), 0)
		if err != nil {
			return 0, err
		}
		factors := make([]int, len(ref.Indices))
		for a, ix := range ref.Indices {
			f := (opt.Config[ix] + baseSide/2) / baseSide
			if f < 1 {
				f = 1
			}
			factors[a] = f
		}
		p, err := tiling.PackTiles(base, factors)
		if err != nil {
			return 0, err
		}
		packed[ref.Name] = p
	}
	packedRes, err := exec.MeasureCtx(ctx, e, packed, nil)
	if err != nil {
		return 0, err
	}
	return float64(packedRes.Total()) / float64(retiledRes.Total()), nil
}
