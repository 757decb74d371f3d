// Package schemes implements the baseline tiling schemes the paper
// evaluates against (§2.3, §6):
//
//   - Conservative: square tiles sized so a fully dense tile fits the
//     buffer (the Extensor-style static default).
//   - Prescient: the largest square tile whose *actual* maximum occupied
//     tile fits the buffer, found by search over the data (the oracle
//     square baseline of the Tailors paper).
//   - Tailors: overbooked square tiles — the largest square size whose
//     tile-footprint distribution overflows the buffer for at most an
//     overbooking-rate fraction of tiles; overflowing tiles pay streaming
//     re-fetch traffic at execution time (exec.Options.InputBufferWords).
//
// The dynamic baseline, DRT, lives in package drt.
package schemes

import (
	"context"
	"fmt"

	"d2t2/internal/einsum"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Conservative returns the square configuration whose dense worst case
// fits bufferWords, for every index variable of e.
func Conservative(e *einsum.Expr, bufferWords int) model.Config {
	maxOrder := 0
	for _, ref := range e.Inputs() {
		if len(ref.Indices) > maxOrder {
			maxOrder = len(ref.Indices)
		}
	}
	t := tiling.ConservativeSquare(bufferWords, maxOrder)
	cfg := make(model.Config, len(e.Order))
	for _, ix := range e.Order {
		cfg[ix] = t
	}
	return cfg
}

// maxTileAt tiles every input with square tiles of size t and returns
// the largest tile footprint observed across all inputs.
func maxTileAt(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, t int) (int, error) {
	maxFP := 0
	for _, ref := range e.Inputs() {
		m := inputs[ref.Name]
		if m == nil {
			return 0, fmt.Errorf("schemes: missing input %q", ref.Name)
		}
		dims := make([]int, len(ref.Indices))
		for a := range dims {
			dims[a] = t
			if dims[a] > m.Dims[a] {
				dims[a] = m.Dims[a]
			}
		}
		tt, err := tiling.NewCtx(ctx, m, dims, e.LevelOrder(ref), 0)
		if err != nil {
			return 0, err
		}
		if tt.MaxFootprint > maxFP {
			maxFP = tt.MaxFootprint
		}
	}
	return maxFP, nil
}

// Prescient binary-searches the largest square tile size (between the
// conservative size and the full dimension) whose actual largest tile
// fits bufferWords. It presciently inspects the data, which is why the
// paper treats it as an oracle baseline.
func Prescient(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int) (model.Config, error) {
	lo := 0
	for _, ix := range Conservative(e, bufferWords) {
		lo = ix
		break
	}
	hi := lo
	for _, ref := range e.Inputs() {
		m := inputs[ref.Name]
		if m == nil {
			return nil, fmt.Errorf("schemes: missing input %q", ref.Name)
		}
		for _, d := range m.Dims {
			if d > hi {
				hi = d
			}
		}
	}
	// Galloping + binary search on the largest fitting size. Feasibility
	// is monotone in practice (larger tiles hold at least as much data).
	best := lo
	for lo <= hi {
		mid := (lo + hi) / 2
		if mid < 1 {
			mid = 1
		}
		fp, err := maxTileAt(ctx, e, inputs, mid)
		if err != nil {
			return nil, err
		}
		if fp <= bufferWords {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	cfg := make(model.Config, len(e.Order))
	for _, ix := range e.Order {
		cfg[ix] = best
	}
	return cfg, nil
}

// TailorsInfo reports the overbooking decision.
type TailorsInfo struct {
	TileSize      int
	OverflowRate  float64 // fraction of non-empty tiles exceeding buffer
	OverflowTiles int
	TotalTiles    int
}

// Tailors finds the largest square tile size whose footprint distribution
// keeps the overflowing-tile fraction at or below rate (the paper's
// Tailors configuration uses 10%). Overbooked tiles are legal: the
// execution backend charges their excess as streaming re-fetch traffic.
func Tailors(ctx context.Context, e *einsum.Expr, inputs map[string]*tensor.COO, bufferWords int, rate float64) (model.Config, *TailorsInfo, error) {
	if rate <= 0 {
		rate = 0.10
	}
	cons := 0
	for _, v := range Conservative(e, bufferWords) {
		cons = v
		break
	}
	maxDim := cons
	for _, ref := range e.Inputs() {
		m := inputs[ref.Name]
		if m == nil {
			return nil, nil, fmt.Errorf("schemes: missing input %q", ref.Name)
		}
		for _, d := range m.Dims {
			if d > maxDim {
				maxDim = d
			}
		}
	}

	overflowAt := func(t int) (float64, int, int, error) {
		over, total := 0, 0
		for _, ref := range e.Inputs() {
			m := inputs[ref.Name]
			dims := make([]int, len(ref.Indices))
			for a := range dims {
				dims[a] = t
				if dims[a] > m.Dims[a] {
					dims[a] = m.Dims[a]
				}
			}
			tt, err := tiling.NewCtx(ctx, m, dims, e.LevelOrder(ref), 0)
			if err != nil {
				return 0, 0, 0, err
			}
			total += tt.NumTiles()
			for _, tile := range tt.Tiles {
				if tile.Footprint > bufferWords {
					over++
				}
			}
		}
		if total == 0 {
			return 0, 0, 0, nil
		}
		return float64(over) / float64(total), over, total, nil
	}

	// Bisect for the largest size within the overbooking budget. The
	// overflow fraction grows with tile size in practice (bigger tiles
	// concentrate more data per tile), making bisection sound here.
	lo, hi := cons, maxDim
	best := cons
	info := &TailorsInfo{TileSize: cons}
	for lo <= hi {
		mid := (lo + hi) / 2
		if mid < 1 {
			mid = 1
		}
		frac, over, total, err := overflowAt(mid)
		if err != nil {
			return nil, nil, err
		}
		if frac <= rate {
			best = mid
			info = &TailorsInfo{TileSize: mid, OverflowRate: frac, OverflowTiles: over, TotalTiles: total}
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	cfg := make(model.Config, len(e.Order))
	for _, ix := range e.Order {
		cfg[ix] = best
	}
	return cfg, info, nil
}
