package experiments

import "context"

// Experiment names one reproducible artifact and its runner.
type Experiment struct {
	ID    string
	Paper string // what the paper reports
	Run   func(ctx context.Context, s *Suite) (*Table, error)
}

// All returns every experiment in paper order. Suite-independent
// experiments (the worked example, the full-size Opal table) adapt the
// suite where needed.
func All() []Experiment {
	return []Experiment{
		{"fig3c", "worked example traffic table", func(ctx context.Context, _ *Suite) (*Table, error) { return Fig3c(ctx) }},
		{"fig5", "model validation across RF", Fig5},
		{"fig6a", "speedup vs traffic linearity", Fig6a},
		{"fig6b", "D2T2 vs Tailors over Prescient", Fig6b},
		{"fig6c", "D2T2 vs DRT vs Conservative over Prescient", Fig6c},
		{"table4", "TTM and MTTKRP-3 improvements", Table4},
		{"table5", "Opal deployment speedups", func(ctx context.Context, _ *Suite) (*Table, error) { return Table5(ctx) }},
		{"fig7", "tiling-time overheads", Fig7},
		{"fig8", "tile shape vs sum of correlations", Fig8},
		{"fig9", "statistics ablation", Fig9},
		{"sec66", "optimality vs exhaustive search", Sec66},
		{"sec67", "packed tiles without retiling", Sec67},
		{"ext-refine", "cross-operand refinement ablation (extension)", ExtRefine},
		{"ext-reorder", "degree reordering preprocessing (extension)", ExtReorder},
		{"ext-overbook", "risk-aware overbooking traffic/risk sweep (extension)", ExtOverbook},
		{"coldpipe", "cold-pipeline serial vs parallel wall clock (extension)", ColdPipe},
	}
}

// ByID returns the experiment with the given id, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
