package experiments

import (
	"context"
	"testing"
)

// TestOverbookSweep is the acceptance gate for risk-aware sizing
// (DESIGN.md §18): across the four paper kernels, nonzero overflow
// targets must actually buy something — lower exec-measured traffic or
// higher buffer utilization than the conservative baseline — on at
// least two kernels, and the measured overflow rate must stay within
// 2× the requested target everywhere.
func TestOverbookSweep(t *testing.T) {
	s := QuickSuite()
	pts, err := OverbookSweep(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4*len(OverbookTargets) {
		t.Fatalf("got %d points, want %d", len(pts), 4*len(OverbookTargets))
	}
	base := map[string]OverbookPoint{}
	for _, p := range pts {
		if p.Target == 0 {
			base[p.Kernel] = p
		}
	}
	improved := map[string]bool{}
	for _, p := range pts {
		t.Logf("%-10s target=%-5g tf=%-3d traffic=%.3fMB overflow=%.4f predicted=%.4f util=%.3f",
			p.Kernel, p.Target, p.TileFactor, p.TrafficMB, p.OverflowRate, p.PredictedRate, p.Utilization)
		if p.Target == 0 {
			if p.OverflowRate != 0 {
				t.Errorf("%s: conservative baseline overflowed (rate %v)", p.Kernel, p.OverflowRate)
			}
			continue
		}
		if p.OverflowRate > 2*p.Target {
			t.Errorf("%s target %g: measured overflow rate %v exceeds 2x target", p.Kernel, p.Target, p.OverflowRate)
		}
		b := base[p.Kernel]
		if p.TrafficMB < b.TrafficMB || p.Utilization > b.Utilization {
			improved[p.Kernel] = true
		}
	}
	if len(improved) < 2 {
		t.Errorf("overbooking improved only %d of 4 kernels (want >= 2): %v", len(improved), improved)
	}
}

// BenchmarkOverbook times the full risk/traffic sweep; CI's bench smoke
// runs it once so regressions in the risk-aware pipeline show up.
func BenchmarkOverbook(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := QuickSuite()
		if _, err := OverbookSweep(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}
