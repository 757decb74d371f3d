package d2t2

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	a := NewTensor(8, 8)
	a.Set([]int{0, 0}, 1)
	a.Set([]int{3, 5}, 2)
	a.Normalize()
	if a.NNZ() != 2 || a.Order() != 2 {
		t.Fatalf("nnz=%d order=%d", a.NNZ(), a.Order())
	}
	c, v := a.Entry(1)
	if c[0] != 3 || c[1] != 5 || v != 2 {
		t.Fatalf("entry = %v %v", c, v)
	}
	at := a.Transpose()
	if d := at.Dims(); d[0] != 8 || d[1] != 8 {
		t.Fatalf("dims = %v", d)
	}

	var buf bytes.Buffer
	if err := a.ToMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := FromMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 2 {
		t.Fatal("matrix market round trip lost entries")
	}

	var tns bytes.Buffer
	if err := a.ToTNS(&tns); err != nil {
		t.Fatal(err)
	}
	if _, err := FromTNS(&tns, a.Dims()); err != nil {
		t.Fatal(err)
	}
}

func TestKernels(t *testing.T) {
	k, err := ParseKernel("C(i,j) = A(i,k) * B(k,j) | order: i,k,j")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k.String(), "A(i,k)") {
		t.Fatalf("kernel string = %q", k.String())
	}
	if _, err := ParseKernel("garbage"); err == nil {
		t.Fatal("bad kernel accepted")
	}
	for _, k := range []*Kernel{Gustavson(), InnerProduct(), TTM(), MTTKRP()} {
		if k.String() == "" {
			t.Fatal("empty kernel")
		}
	}
}

func TestOptimizeMeasureExecute(t *testing.T) {
	a, err := Dataset("E", 96) // scircuit stand-in, small
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a.Transpose()}
	k := Gustavson()
	buffer := DenseTileWords(32, 32)

	plan, err := OptimizeCtx(context.Background(), k, inputs, Options{BufferWords: buffer})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(plan.Config); err != nil {
		t.Fatal(err)
	}
	if plan.BaseTile != 32 || plan.PredictedMB <= 0 {
		t.Fatalf("plan = %+v", plan)
	}

	rep, err := plan.MeasureCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalWords() <= 0 || rep.MACs <= 0 {
		t.Fatalf("report = %+v", rep)
	}

	out, rep2, err := plan.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.NNZ() == 0 {
		t.Fatal("empty product")
	}
	if rep2.TotalWords() != rep.TotalWords() {
		t.Fatal("execute and measure disagree on traffic")
	}

	// Baselines and machine model.
	cons := ConservativeConfig(k, buffer)
	if cons["i"] != 32 {
		t.Fatalf("conservative = %v", cons)
	}
	pres, err := PrescientConfig(context.Background(), k, inputs, buffer)
	if err != nil {
		t.Fatal(err)
	}
	presRep, err := MeasureConfig(context.Background(), k, inputs, pres)
	if err != nil {
		t.Fatal(err)
	}
	sp := Speedup(presRep, rep, Extensor())
	if sp <= 0 {
		t.Fatalf("speedup = %v", sp)
	}
	if Runtime(rep, Opal()) <= 0 {
		t.Fatal("no runtime")
	}
}

func TestOptionsVariants(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a.Transpose()}
	buffer := DenseTileWords(32, 32)
	for _, o := range []Options{
		{BufferWords: buffer, Analytic: true},
		{BufferWords: buffer, DisableCorrs: true},
		{BufferWords: buffer, SkipResize: true},
	} {
		if _, err := OptimizeCtx(context.Background(), Gustavson(), inputs, o); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
	if _, err := OptimizeCtx(context.Background(), Gustavson(), inputs, Options{}); err == nil {
		t.Fatal("zero buffer accepted")
	}
}

func TestDatasetErrors(t *testing.T) {
	if _, err := Dataset("ZZ", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	d, err := Dataset("bwm2000", 1)
	if err != nil || d.NNZ() == 0 {
		t.Fatalf("table-5 dataset failed: %v", err)
	}
}

func TestSDDMMAndEnergyAPI(t *testing.T) {
	k := SDDMM()
	s := NewTensor(64, 64)
	a := NewTensor(64, 64)
	b := NewTensor(64, 64)
	for i := 0; i < 64; i += 3 {
		s.Set([]int{i, (i * 7) % 64}, 1)
		a.Set([]int{i, (i * 5) % 64}, 2)
		b.Set([]int{(i * 5) % 64, (i * 7) % 64}, 3)
	}
	inputs := Inputs{"S": s, "A": a, "B": b}
	cfg := TileConfig{"i": 16, "j": 16, "k": 16}
	if err := k.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureConfig(context.Background(), k, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := EnergyPJ(rep, DefaultEnergy()); e <= 0 {
		t.Fatalf("energy = %v", e)
	}
}

func TestOptimizeEmptyishInput(t *testing.T) {
	// A single-entry matrix must survive the whole pipeline.
	a := NewTensor(256, 256)
	a.Set([]int{10, 20}, 1)
	inputs := Inputs{"A": a, "B": a.Transpose()}
	plan, err := OptimizeCtx(context.Background(), Gustavson(), inputs, Options{BufferWords: DenseTileWords(32, 32)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.MeasureCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MACs != 0 {
		// (10,20)x(20,10)... A(10,20), B=At has (20,10): product over k:
		// A(i=10,k=20)*B(k=20,j=10) = one MAC.
		if rep.MACs != 1 {
			t.Fatalf("MACs = %d", rep.MACs)
		}
	}
}

func TestVectorKernel(t *testing.T) {
	// Elementwise vector product: C(i) = A(i) * B(i).
	k, err := ParseKernel("C(i) = A(i) * B(i) | order: i")
	if err != nil {
		t.Fatal(err)
	}
	a := NewTensor(100)
	b := NewTensor(100)
	for i := 0; i < 100; i += 2 {
		a.Set([]int{i}, 2)
	}
	for i := 0; i < 100; i += 3 {
		b.Set([]int{i}, 3)
	}
	out, rep, err := executeConfig(context.Background(), k, Inputs{"A": a, "B": b}, TileConfig{"i": 10})
	if err != nil {
		t.Fatal(err)
	}
	// Intersection: multiples of 6 -> 17 entries (0,6,...,96).
	if out.NNZ() != 17 {
		t.Fatalf("vector product nnz = %d, want 17", out.NNZ())
	}
	if rep.MACs != 17 {
		t.Fatalf("MACs = %d, want 17", rep.MACs)
	}
	c, v := out.Entry(1)
	if c[0] != 6 || v != 6 {
		t.Fatalf("entry = %v %v", c, v)
	}
}

func TestOptimizeDataflow(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a.Transpose()}
	plan, order, err := OptimizeDataflow(context.Background(), Gustavson(), inputs, Options{BufferWords: DenseTileWords(32, 32)})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	rep, err := plan.MeasureCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalWords() <= 0 {
		t.Fatal("no traffic")
	}
}

func TestPublicAPIMoreSurface(t *testing.T) {
	a, err := Dataset("K", 8)
	if err != nil {
		t.Fatal(err)
	}
	aN := a.NNZ()
	c := a.Clone()
	c.Set([]int{0, 0}, 99)
	c.Normalize()
	if a.NNZ() != aN {
		t.Fatal("clone aliased storage: mutating the copy changed the original")
	}

	// CollectStats summary.
	st, err := CollectStats(context.Background(), a, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.SizeTile <= 0 || st.MaxTile < int(st.SizeTile) || st.NumTiles <= 0 {
		t.Fatalf("stats summary wrong: %+v", st)
	}
	if len(st.PrTileIdx) != 2 || len(st.CorrSums) != 2 {
		t.Fatalf("stats arity: %+v", st)
	}

	// PredictConfig.
	inputs := Inputs{"A": a, "B": a.Transpose()}
	mb, err := PredictConfig(context.Background(), Gustavson(), inputs, TileConfig{"i": 64, "k": 64, "j": 64}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mb <= 0 {
		t.Fatalf("predicted MB = %v", mb)
	}
	// Missing input tensor.
	if _, err := PredictConfig(context.Background(), Gustavson(), Inputs{"A": a}, TileConfig{"i": 64, "k": 64, "j": 64}, 64); err == nil {
		t.Fatal("missing input accepted")
	}

	// Validate rejects incomplete configs.
	if err := Gustavson().Validate(TileConfig{"i": 4}); err == nil {
		t.Fatal("incomplete config validated")
	}

	// MeasureConfig error path (bad config).
	if _, err := MeasureConfig(context.Background(), Gustavson(), inputs, TileConfig{"i": 64}); err == nil {
		t.Fatal("incomplete measure config accepted")
	}
}

func TestSpyAPI(t *testing.T) {
	a, err := Dataset("A", 96)
	if err != nil {
		t.Fatal(err)
	}
	out := a.Spy(30, 10)
	if len(out) == 0 || !strings.Contains(out, "@") && !strings.Contains(out, "#") &&
		!strings.Contains(out, "*") && !strings.Contains(out, "+") && !strings.Contains(out, ".") {
		t.Fatalf("spy produced no glyphs:\n%s", out)
	}
}

func TestOptimizeHierarchyAPI(t *testing.T) {
	a, err := Dataset("N", 8) // bcsstk17 stand-in, small
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a.Transpose()}
	plan, err := OptimizeHierarchy(context.Background(), Gustavson(), inputs,
		DenseTileWords(128, 128), DenseTileWords(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if plan.L1["i"] < 1 || plan.L2["i"] < plan.L1["i"] {
		t.Fatalf("plan levels wrong: L1=%v L2=%v", plan.L1, plan.L2)
	}
	rep, err := plan.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 || rep.DRAM.TotalWords() <= 0 || rep.Global.TotalWords() <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Errors: bad buffers.
	if _, err := OptimizeHierarchy(context.Background(), Gustavson(), inputs, 10, 10); err == nil {
		t.Fatal("L1 >= L2 accepted")
	}
}
