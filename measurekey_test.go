package d2t2

import (
	"context"
	"reflect"
	"testing"
)

// TestMeasureKey: the key names exactly what MeasureCtx reads. A
// conservative plan's key ignores the buffer and the worker count, and
// equal keys measure equal reports (a raw tensor and its normalized
// clone included); the loop order, the operand binding, the config, a
// new tensor version and an overbooked plan's buffer model each change
// it.
func TestMeasureKey(t *testing.T) {
	a, err := Dataset("E", 96)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Transpose()
	ikj := Gustavson()
	ijk, err := ParseKernel("C(i,j) = A(i,k) * B(k,j) | order: i,j,k")
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{"A": a, "B": b}
	cfg := TileConfig{"i": 8, "j": 16, "k": 8}
	plan := func(k *Kernel, in Inputs, cfg TileConfig, bufferWords int, risk *RiskSummary) *Plan {
		return &Plan{Config: cfg, Risk: risk, kernel: k, inputs: in, bufferWords: bufferWords}
	}
	key := func(p *Plan) string {
		t.Helper()
		k, err := p.MeasureKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	measure := func(p *Plan) *TrafficReport {
		t.Helper()
		r, err := p.MeasureCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// A raw twin of a: the same entries shuffled, with one split in two.
	raw := NewTensor(a.Dims()...)
	for p := a.NNZ() - 1; p >= 0; p-- {
		c, v := a.Entry(p)
		if p == 0 {
			raw.Set(c, v/2)
			v /= 2
		}
		raw.Set(c, v)
	}
	base := plan(ikj, in, cfg, 100, nil)
	same := []*Plan{
		plan(ikj, in, cfg, 5000, nil),
		{Config: cfg, kernel: ikj, inputs: in, workers: 3},
		plan(ikj, Inputs{"A": raw, "B": b}, cfg, 100, nil),
	}
	want := measure(base)
	for i, p := range same {
		if key(p) != key(base) {
			t.Errorf("plan %d: key\n%s\nwant\n%s", i, key(p), key(base))
		}
		if got := measure(p); !reflect.DeepEqual(got, want) {
			t.Errorf("plan %d: equal keys measured %+v and %+v", i, got, want)
		}
	}

	next := a.Clone()
	next.Set([]int{0, 1}, 1)
	over := &RiskSummary{OverflowTarget: 0.05, OverflowExtra: 1}
	overKey := key(plan(ikj, in, cfg, 100, over))
	for name, c := range map[string]struct {
		p    *Plan
		base string
	}{
		"loop order":        {plan(ijk, in, cfg, 100, nil), key(base)},
		"swapped operands":  {plan(ikj, Inputs{"A": b, "B": a}, cfg, 100, nil), key(base)},
		"config":            {plan(ikj, in, TileConfig{"i": 8, "j": 16, "k": 16}, 100, nil), key(base)},
		"new version":       {plan(ikj, Inputs{"A": next, "B": b}, cfg, 100, nil), key(base)},
		"overbooked":        {plan(ikj, in, cfg, 100, over), key(base)},
		"overbooked buffer": {plan(ikj, in, cfg, 200, over), overKey},
		"overflow extra":    {plan(ikj, in, cfg, 100, &RiskSummary{OverflowTarget: 0.05, OverflowExtra: 2}), overKey},
	} {
		if key(c.p) == c.base {
			t.Errorf("%s: key unchanged:\n%s", name, c.base)
		}
	}
	// A risk summary without an overflow target (a calibrated plan)
	// measures under no buffer model, like a conservative plan.
	if key(plan(ikj, in, cfg, 200, &RiskSummary{})) != key(base) {
		t.Error("a calibrated conservative plan's key names its buffer")
	}

	if _, err := plan(ikj, Inputs{"A": a}, cfg, 100, nil).MeasureKey(); err == nil {
		t.Error("a plan missing an operand has a key")
	}
}
