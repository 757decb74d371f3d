package model

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
)

// memoPredictor returns a fresh SpMSpM-ikj predictor over a power-law
// matrix and configs to ask it: raw values on and off the micro grid,
// two of which snap to the same shape (they stay distinct keys, since
// the output terms read raw tile sizes).
func memoPredictor(t *testing.T) (*Predictor, []Config) {
	r := rand.New(rand.NewSource(7))
	m := gen.PowerLawGraph(r, 256, 4000, 1.6)
	e := einsum.SpMSpMIKJ()
	p, err := New(e, collectAll(t, e, map[string]*tensor.COO{"A": m, "B": m.Transpose()}, 32, 8))
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, i := range []int{16, 32, 64} {
		for _, k := range []int{8, 32} {
			cfgs = append(cfgs, Config{"i": i, "k": k, "j": 32})
		}
	}
	cfgs = append(cfgs, Config{"i": 33, "k": 8, "j": 32}, Config{"i": 35, "k": 8, "j": 32})
	return p, cfgs
}

// TestPredictOneFlightPerConfig asks every config from concurrent
// goroutines at once: each distinct config is computed once, and every
// asker gets the unmemoized prediction.
func TestPredictOneFlightPerConfig(t *testing.T) {
	p, cfgs := memoPredictor(t)
	const goroutines = 8
	got := make([][]*Prediction, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*Prediction, len(cfgs))
			for k := range cfgs {
				i := (k + g) % len(cfgs)
				pr, err := p.Predict(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = pr
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if p.Computed() != int64(len(cfgs)) || p.Kept() != len(cfgs) {
		t.Fatalf("%d configs asked %d times each: %d computed, %d kept; want %d and %d",
			len(cfgs), goroutines, p.Computed(), p.Kept(), len(cfgs), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := p.predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Fatalf("config %v (goroutine %d): %+v, unmemoized %+v", cfg, g, got[g][i], want)
			}
		}
	}

	// Mode and the ablation flags are part of the key.
	p.Mode = ModeAnalytic
	pa, err := p.Predict(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, _ := p.predict(cfgs[0])
	if !reflect.DeepEqual(pa, want) || p.Computed() != int64(len(cfgs))+1 {
		t.Fatalf("analytic prediction %+v (computed %d), want %+v computed afresh", pa, p.Computed(), want)
	}
}

// TestPredictCalibrationOutsideMemo checks the memo holds the
// uncalibrated estimate: as the calibration bias moves, memo hits scale
// by the current bias, and a caller editing its returned prediction
// does not reach the memo.
func TestPredictCalibrationOutsideMemo(t *testing.T) {
	p, cfgs := memoPredictor(t)
	raw, err := p.predict(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Calib, p.CalibClass = NewCalibration(), "c"
	first, err := p.Predict(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, raw) {
		t.Fatalf("bias 1: %+v, want the raw %+v", first, raw)
	}
	first.Input["A"] = -1
	first.Output = -1

	f := p.Calib.Observe("c", 100, 150)
	got, err := p.Predict(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := &Prediction{Input: map[string]float64{}, Output: raw.Output * f}
	for k, v := range raw.Input {
		want.Input[k] = v * f
	}
	if !reflect.DeepEqual(got, want) || p.Computed() != 1 {
		t.Fatalf("bias %v: %+v (computed %d), want %+v from the one kept estimate", f, got, p.Computed(), want)
	}
}
