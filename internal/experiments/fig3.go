package experiments

import (
	"context"
	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/model"
	"d2t2/internal/tensor"
)

// Fig3c reproduces the worked example of Figure 3: a small Gustavson
// SpMSpM where reshaping tiles to match the data distribution (an empty
// k-column of tiles, rows that prefer tall tiles) reduces both traffic
// and tile iterations. Traffic is counted in nonzeros, as the figure
// does "for simplicity".
//
// The figure's exact matrices are not published; the matrices here are
// reconstructed to exhibit the same two effects the text describes —
// tile-iteration skipping at an empty outer column and fewer B re-fetches
// under a taller i-tile — so the table shape (D2T2 strictly below
// Conservative in total traffic and iterations) is what is reproduced.
func Fig3c(ctx context.Context) (*Table, error) {
	// 8×8 operands, buffer holding a 2×2 dense tile (Conservative = 2×2).
	a := tensor.New(8, 8)
	for _, e := range [][2]int{{0, 0}, {1, 1}, {2, 0}, {3, 1}, {4, 1}, {5, 0}, {6, 1}, {7, 0}} {
		a.Append([]int{e[0], e[1]}, 1)
	}
	b := tensor.New(8, 8)
	// B rows only in k-tile 0 (rows 0..1) — middle and upper k empty.
	for _, e := range [][2]int{{0, 0}, {0, 5}, {1, 2}, {1, 6}} {
		b.Append([]int{e[0], e[1]}, 1)
	}
	e := einsum.SpMSpMIKJ()
	inputs := map[string]*tensor.COO{"A": a, "B": b}

	tbl := &Table{
		ID:      "fig3c",
		Title:   "Worked example: elements accessed per tiling scheme (Fig. 3c)",
		Headers: []string{"Config", "Traffic A", "Traffic B", "Traffic C", "Total", "Tile iterations"},
	}

	run := func(name string, cfg model.Config) (int64, error) {
		res, err := measureConfig(ctx, nil, e, inputs, cfg, &exec.Options{ValuesOnly: true})
		if err != nil {
			return 0, err
		}
		tbl.Append(name, res.Input["A"], res.Input["B"], res.Output,
			res.Total(), res.TileIterations)
		return res.Total(), nil
	}

	cons, err := run("Conservative 2x2", model.Config{"i": 2, "k": 2, "j": 2})
	if err != nil {
		return nil, err
	}
	d2t2, err := run("D2T2 4x1", model.Config{"i": 4, "k": 1, "j": 4})
	if err != nil {
		return nil, err
	}
	if d2t2 < cons {
		tbl.Notes = append(tbl.Notes, "D2T2 reshaped tiles reduce total traffic, as in the paper's example")
	} else {
		tbl.Notes = append(tbl.Notes, "WARNING: reshaped tiles did not reduce traffic")
	}
	return tbl, nil
}
