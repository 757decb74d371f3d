package d2t2

import (
	"context"
	"errors"
	"testing"
)

// TestEntryPointsCancelled calls every root entry point that takes a
// context with one cancelled before the call. Each must return
// context.Canceled, which it can only do by handing its ctx down to the
// stage that checks it: an entry point that drops its ctx runs to
// completion and fails here. Every call starts on a fresh Session, so no
// warm statistics let a call finish without work.
func TestEntryPointsCancelled(t *testing.T) {
	a, err := Dataset("N", 8)
	if err != nil {
		t.Fatal(err)
	}
	a.Normalize()
	inputs := Inputs{"A": a, "B": a.Transpose()}
	k := Gustavson()
	opts := Options{BufferWords: DenseTileWords(32, 32)}
	live := context.Background()
	plan, err := OptimizeCtx(live, k, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	hplan, err := OptimizeHierarchy(live, k, inputs, DenseTileWords(128, 128), DenseTileWords(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	taken := map[[2]int]bool{}
	for p := 0; p < a.NNZ(); p++ {
		c, _ := a.Entry(p)
		taken[[2]int{c[0], c[1]}] = true
	}
	delta := NewTensor(a.Dims()...)
	for p := 0; delta.NNZ() == 0 && p < a.Dims()[0]*a.Dims()[1]; p++ {
		if c := [2]int{p / a.Dims()[1], p % a.Dims()[1]}; !taken[c] {
			delta.Set(c[:], 1)
		}
	}

	cases := []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"OptimizeCtx", func(ctx context.Context) error {
			_, err := OptimizeCtx(ctx, k, inputs, opts)
			return err
		}},
		{"OptimizeDataflow", func(ctx context.Context) error {
			_, _, err := OptimizeDataflow(ctx, k, inputs, opts)
			return err
		}},
		{"OptimizeHierarchy", func(ctx context.Context) error {
			_, err := OptimizeHierarchy(ctx, k, inputs, DenseTileWords(128, 128), DenseTileWords(16, 16))
			return err
		}},
		{"MeasureConfig", func(ctx context.Context) error {
			_, err := MeasureConfig(ctx, k, inputs, plan.Config)
			return err
		}},
		{"PrescientConfig", func(ctx context.Context) error {
			_, err := PrescientConfig(ctx, k, inputs, opts.BufferWords)
			return err
		}},
		{"CollectStats", func(ctx context.Context) error {
			_, err := CollectStats(ctx, a, 32)
			return err
		}},
		{"PredictConfig", func(ctx context.Context) error {
			_, err := PredictConfig(ctx, k, inputs, plan.Config, 32)
			return err
		}},
		{"Plan.MeasureCtx", func(ctx context.Context) error {
			_, err := plan.MeasureCtx(ctx)
			return err
		}},
		{"Plan.Execute", func(ctx context.Context) error {
			_, _, err := plan.Execute(ctx)
			return err
		}},
		{"HierarchyPlan.Measure", func(ctx context.Context) error {
			_, err := hplan.Measure(ctx)
			return err
		}},
		{"Session.OptimizeCtx", func(ctx context.Context) error {
			_, err := NewSession(nil).OptimizeCtx(ctx, k, inputs, opts)
			return err
		}},
		{"Session.PredictCtx", func(ctx context.Context) error {
			_, err := NewSession(nil).PredictCtx(ctx, k, inputs, plan.Config, 32)
			return err
		}},
		{"Session.StatsCtx", func(ctx context.Context) error {
			_, err := NewSession(nil).StatsCtx(ctx, a, 32)
			return err
		}},
		{"Session.DeltaCtx", func(ctx context.Context) error {
			_, _, err := NewSession(nil).DeltaCtx(ctx, a, delta, 32)
			return err
		}},
		{"Batch.OptimizeCtx", func(ctx context.Context) error {
			_, err := NewSession(nil).NewBatch().OptimizeCtx(ctx, k, inputs, opts)
			return err
		}},
	}
	cancelled, cancel := context.WithCancel(live)
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
			}
		})
	}
}
