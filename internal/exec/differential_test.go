package exec

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// The differential suite runs every kernel shape through both backends
// — the compiled engine and the generic walker (ForceGeneric) — across
// tile sizes, worker counts and buffer-overflow options, and demands
// byte-identical results: equal Traffic structs (every counter,
// including the per-tensor Input map) and bit-identical collected
// outputs. The generic walker is the reference oracle; any divergence
// is an engine bug by definition.

// diffCase is one kernel × input recipe.
type diffCase struct {
	name string
	expr *einsum.Expr
	// inputs builds fresh COO inputs from the seeded source.
	inputs func(r *rand.Rand) map[string]*tensor.COO
	// vars lists the expression's index variables (for square tiling).
	vars []string
	// specialized reports whether compileEngine must accept the kernel.
	specialized bool
}

func diffCases() []diffCase {
	return []diffCase{
		{
			name: "SpMSpMIKJ",
			expr: einsum.SpMSpMIKJ(),
			inputs: func(r *rand.Rand) map[string]*tensor.COO {
				a := gen.PowerLawGraph(r, 48, 500, 1.6)
				return map[string]*tensor.COO{"A": a, "B": a.Transpose()}
			},
			vars:        []string{"i", "k", "j"},
			specialized: true,
		},
		{
			name: "SpMSpMIJK",
			expr: einsum.SpMSpMIJK(),
			inputs: func(r *rand.Rand) map[string]*tensor.COO {
				// B(j,k) = A computes C = A·Aᵀ under the inner-product dataflow.
				a := gen.PowerLawGraph(r, 48, 500, 1.6)
				return map[string]*tensor.COO{"A": a, "B": a.Clone()}
			},
			vars:        []string{"i", "j", "k"},
			specialized: true,
		},
		{
			name: "TTM",
			expr: einsum.TTM(), // X(i,j,k) = C(i,j,l)*B(k,l)
			inputs: func(r *rand.Rand) map[string]*tensor.COO {
				return map[string]*tensor.COO{
					"C": gen.RandomTensor3(r, 18, 14, 10, 400, [3]float64{0, 0, 0}),
					"B": gen.UniformRandom(r, 12, 10, 60),
				}
			},
			vars:        []string{"i", "j", "l", "k"},
			specialized: true,
		},
		{
			name: "MTTKRP",
			expr: einsum.MTTKRP3(), // D(i,j) = A(i,k,l)*B(j,k)*C(j,l)
			inputs: func(r *rand.Rand) map[string]*tensor.COO {
				return map[string]*tensor.COO{
					"A": gen.RandomTensor3(r, 14, 10, 8, 300, [3]float64{0, 0, 0}),
					"B": gen.UniformRandom(r, 9, 10, 40),
					"C": gen.UniformRandom(r, 9, 8, 36),
				}
			},
			vars:        []string{"i", "k", "l", "j"},
			specialized: true,
		},
		{
			name: "SDDMM",
			expr: einsum.SDDMM(), // E(i,j) = S(i,j)*A(i,k)*B(k,j)
			inputs: func(r *rand.Rand) map[string]*tensor.COO {
				n := 32
				return map[string]*tensor.COO{
					"S": gen.UniformRandom(r, n, n, 90),
					"A": gen.UniformRandom(r, n, n, 220),
					"B": gen.UniformRandom(r, n, n, 220),
				}
			},
			vars:        []string{"i", "j", "k"},
			specialized: true,
		},
		{
			// A rank-1 output: its dense bits have no rows, so each scope
			// lists the cell words it makes nonzero.
			name: "SpMV",
			expr: einsum.MustParse("y(i) = A(i,j) * x(j) | order: i,j"),
			inputs: func(r *rand.Rand) map[string]*tensor.COO {
				x := tensor.New(40)
				for j := 0; j < 40; j += 3 {
					x.Append([]int{j}, float64(j%7+1))
				}
				return map[string]*tensor.COO{"A": gen.UniformRandom(r, 90, 40, 500), "x": x}
			},
			vars:        []string{"i", "j"},
			specialized: true,
		},
		{
			// Multi-summand fused kernel: outside the engine's shape
			// class, so both runs must take the generic walker and the
			// Specialized flag must stay false.
			name: "FusedAddMul",
			expr: einsum.MustParse("D(i,j) = (A(i,j) + B(i,j)) * C(i,j) | order: i,j"),
			inputs: func(r *rand.Rand) map[string]*tensor.COO {
				return map[string]*tensor.COO{
					"A": gen.UniformRandom(r, 24, 24, 80),
					"B": gen.UniformRandom(r, 24, 24, 80),
					"C": gen.UniformRandom(r, 24, 24, 140),
				}
			},
			vars:        []string{"i", "j"},
			specialized: false,
		},
	}
}

// tileAll tiles every input of the case with a square per-index tile.
func tileAll(t testing.TB, c diffCase, inputs map[string]*tensor.COO, tile int) map[string]*tiling.TiledTensor {
	t.Helper()
	tiles := make(map[string]int, len(c.vars))
	for _, v := range c.vars {
		tiles[v] = tile
	}
	tens := make(map[string]*tiling.TiledTensor, len(inputs))
	for name, m := range inputs {
		tens[name] = tileFor(t, c.expr, name, m, tiles)
	}
	return tens
}

// diffOptions are the option sets every case runs under. Buffer sizes
// are deliberately small so overflow accounting triggers on real tiles.
func diffOptions() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"collect", Options{CollectOutput: true}},
		{"overflow", Options{
			CollectOutput:     true,
			InputBufferWords:  32,
			OverflowExtra:     1.5,
			OutputBufferWords: 24,
		}},
		{"valuesonly", Options{CollectOutput: true, ValuesOnly: true}},
	}
}

func TestDifferentialEngineVsGeneric(t *testing.T) {
	for _, c := range diffCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inputs := c.inputs(rand.New(rand.NewSource(97)))
			for _, tile := range []int{3, 5, 8} {
				tens := tileAll(t, c, inputs, tile)
				for _, os := range diffOptions() {
					// Reference: generic walker, serial.
					ref := os.opts
					ref.ForceGeneric = true
					ref.Workers = 1
					want, err := MeasureCtx(context.Background(), c.expr, tens, &ref)
					if err != nil {
						t.Fatal(err)
					}
					if want.Specialized {
						t.Fatal("ForceGeneric run reported Specialized")
					}
					for _, workers := range []int{1, 8} {
						for _, generic := range []bool{false, true} {
							o := os.opts
							o.ForceGeneric = generic
							o.Workers = workers
							got, err := MeasureCtx(context.Background(), c.expr, tens, &o)
							if err != nil {
								t.Fatal(err)
							}
							label := backendLabel(generic, workers, tile, os.name)
							if got.Specialized != (c.specialized && !generic) {
								t.Fatalf("%s: Specialized=%v, want %v",
									label, got.Specialized, c.specialized && !generic)
							}
							if !reflect.DeepEqual(got.Traffic, want.Traffic) {
								t.Fatalf("%s: traffic diverges from oracle:\n got %+v\nwant %+v",
									label, got.Traffic, want.Traffic)
							}
							if !tensor.Equal(got.Out, want.Out) {
								t.Fatalf("%s: collected output is not bit-identical to oracle",
									label)
							}
						}
					}
				}
			}
		})
	}
	// Output tiles at and above maxDenseCells cells, which the engine
	// counts with dense bits and a coordinate list respectively.
	for _, c := range wideCases() {
		c := c
		t.Run("Wide"+c.name, func(t *testing.T) { diffWide(t, c) })
	}
	// One outer tile in i and j, the shape d2t2d measures: a single
	// outermost value, so more than one worker splits the output rows
	// into bands.
	for _, c := range oneTileCases() {
		c := c
		t.Run("OneOuterTile"+c.name, func(t *testing.T) { diffOneTile(t, c) })
	}
}

// countOptions are option sets that collect nothing — the plans whose
// leaf counts cells in its own loop and may run in row bands — with
// overflow accounting on and off.
func countOptions() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"count", Options{}},
		{"countoverflow", Options{InputBufferWords: 32, OverflowExtra: 1.5, OutputBufferWords: 24}},
		{"countvaluesonly", Options{ValuesOnly: true}},
	}
}

// sameResult fails unless got matches the walker's want: equal Traffic
// and, when collected, a bit-identical output.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Traffic, want.Traffic) {
		t.Fatalf("%s: traffic diverges from oracle:\n got %+v\nwant %+v", label, got.Traffic, want.Traffic)
	}
	if (got.Out == nil) != (want.Out == nil) || got.Out != nil && !tensor.Equal(got.Out, want.Out) {
		t.Fatalf("%s: collected output is not bit-identical to oracle", label)
	}
}

// oneTileCases tile i and j (and TTM's k) at full width and split only
// the contraction.
func oneTileCases() []wideCase {
	r := rand.New(rand.NewSource(59))
	a := gen.PowerLawGraph(r, 200, 3000, 1.6)
	c := gen.RandomTensor3(r, 40, 30, 20, 3000, [3]float64{0, 0, 0})
	b := gen.UniformRandom(r, 24, 20, 200)
	return []wideCase{
		{"IKJ", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": a.Transpose()},
			map[string]int{"i": 200, "k": 16, "j": 200}, false},
		{"IJK", einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": a, "B": a.Clone()},
			map[string]int{"i": 200, "j": 200, "k": 16}, false},
		{"TTM", einsum.TTM(), map[string]*tensor.COO{"C": c, "B": b},
			map[string]int{"i": 40, "j": 30, "l": 5, "k": 24}, false},
	}
}

// diffOneTile runs one single-outer-tile case at 1, 2 and 8 workers
// under every option set; a plan that collects nothing must be able to
// run in row bands.
func diffOneTile(t *testing.T, c wideCase) {
	tens := make(map[string]*tiling.TiledTensor, len(c.inputs))
	for name, m := range c.inputs {
		tens[name] = tileFor(t, c.expr, name, m, c.tiles)
	}
	for _, os := range append(countOptions(), diffOptions()...) {
		r, err := newRunner(c.expr, tens, &os.opts)
		if err != nil {
			t.Fatal(err)
		}
		p := compileEngine(context.Background(), r)
		if p == nil || len(p.topVals) != 1 || p.list != c.list {
			t.Fatalf("%s: want a compiled plan with one outermost value on the list path %v", os.name, c.list)
		}
		if bands := p.bandAx >= 0; bands != !os.opts.CollectOutput {
			t.Fatalf("%s: row bands %v, want %v", os.name, bands, !os.opts.CollectOutput)
		}
		ref := os.opts
		ref.ForceGeneric = true
		want, err := MeasureCtx(context.Background(), c.expr, tens, &ref)
		if err != nil {
			t.Fatal(err)
		}
		if want.MACs == 0 || want.OutputNNZ == 0 {
			t.Fatalf("%s: degenerate case (MACs=%d, nnz=%d)", os.name, want.MACs, want.OutputNNZ)
		}
		for _, workers := range []int{1, 2, 8} {
			o := os.opts
			o.Workers = workers
			got, err := MeasureCtx(context.Background(), c.expr, tens, &o)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Specialized {
				t.Fatalf("%s/workers=%d: fell back to the walker", os.name, workers)
			}
			sameResult(t, os.name+"/workers="+itoa(workers), got, want)
		}
	}
}

// wideCase is one kernel tiled with an explicit per-index tile map:
// output tiles past the old 2^20-cell dense cap, which the engine now
// counts with dense bits, and past maxDenseCells, which it counts with
// a coordinate list.
type wideCase struct {
	name   string
	expr   *einsum.Expr
	inputs map[string]*tensor.COO
	tiles  map[string]int
	list   bool // whether the plan must take the list path
}

// wideCases builds large, very sparse inputs once: output tiles of
// 1100², 160·160·120 and 1024² cells (dense bits), and of 4200²,
// 280·280·220 and exactly 4096² cells (the list path, and dense bits
// at the cap).
func wideCases() []wideCase {
	r := rand.New(rand.NewSource(53))
	// ~33k partial products in one full-width scope.
	a := gen.UniformRandom(r, 1100, 1100, 6000)
	sq := gen.UniformRandom(r, 2048, 2048, 3000)
	c := gen.RandomTensor3(r, 160, 160, 50, 2500, [3]float64{0, 0, 0})
	b := gen.UniformRandom(r, 120, 50, 400)
	// Above the dense cap: the key list compacts before it grows.
	big := gen.UniformRandom(r, 4200, 4200, 6000)
	capSq := gen.UniformRandom(r, 4096, 4096, 3000)
	c2 := gen.RandomTensor3(r, 280, 280, 50, 2500, [3]float64{0, 0, 0})
	b2 := gen.UniformRandom(r, 220, 50, 400)
	return []wideCase{
		{"IKJFullWidth", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": a.Transpose()},
			map[string]int{"i": 1100, "k": 1100, "j": 1100}, false},
		{"IKJWideRows", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": a.Transpose()},
			map[string]int{"i": 1100, "k": 37, "j": 1100}, false},
		{"IJKFullWidth", einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": a, "B": a.Clone()},
			map[string]int{"i": 1100, "j": 1100, "k": 1100}, false},
		{"IJKWideOutput", einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": a, "B": a.Clone()},
			map[string]int{"i": 1100, "j": 1100, "k": 100}, false},
		{"TTMWideTile", einsum.TTM(), map[string]*tensor.COO{"C": c, "B": b},
			map[string]int{"i": 160, "j": 160, "l": 10, "k": 120}, false},
		{"IKJAtDenseCap", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": sq, "B": sq.Transpose()},
			map[string]int{"i": 1024, "k": 256, "j": 1024}, false},
		{"IKJAboveDenseCap", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": big, "B": big.Transpose()},
			map[string]int{"i": 4200, "k": 600, "j": 4200}, true},
		{"IJKAboveDenseCap", einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": big, "B": big.Clone()},
			map[string]int{"i": 4200, "j": 4200, "k": 4200}, true},
		{"TTMAboveDenseCap", einsum.TTM(), map[string]*tensor.COO{"C": c2, "B": b2},
			map[string]int{"i": 280, "j": 280, "l": 10, "k": 220}, true},
		{"IKJAtNewDenseCap", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": capSq, "B": capSq.Transpose()},
			map[string]int{"i": 4096, "k": 512, "j": 4096}, false},
	}
}

// diffWide runs one wide case: the plan must compile onto the expected
// counting path, and every option set must run Specialized and match
// the serial walker byte-for-byte at one and two workers.
func diffWide(t *testing.T, c wideCase) {
	tens := make(map[string]*tiling.TiledTensor, len(c.inputs))
	for name, m := range c.inputs {
		tens[name] = tileFor(t, c.expr, name, m, c.tiles)
	}
	r, err := newRunner(c.expr, tens, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := compileEngine(context.Background(), r)
	if p == nil || p.list != c.list {
		t.Fatalf("compileEngine: plan=%v, want list path %v", p != nil, c.list)
	}
	for _, os := range append(diffOptions(), countOptions()...) {
		ref := os.opts
		ref.ForceGeneric = true
		want, err := MeasureCtx(context.Background(), c.expr, tens, &ref)
		if err != nil {
			t.Fatal(err)
		}
		if want.MACs == 0 || want.OutputNNZ == 0 {
			t.Fatalf("%s: degenerate case (MACs=%d, nnz=%d)", os.name, want.MACs, want.OutputNNZ)
		}
		for _, workers := range []int{1, 2} {
			o := os.opts
			o.Workers = workers
			got, err := MeasureCtx(context.Background(), c.expr, tens, &o)
			if err != nil {
				t.Fatal(err)
			}
			label := os.name + "/workers=" + itoa(workers)
			if !got.Specialized {
				t.Fatalf("%s: fell back to the walker", label)
			}
			sameResult(t, label, got, want)
		}
	}
}

// TestJoinKeyExactBeyond16Bits pins the walker's join key: shared
// coordinates 0 and 65536 in one 70000-wide k tile are distinct, so
// A(0,0)·B(65536,1) is no product. Both backends must agree (the
// engine's head-table cap sends this plan to the walker either way).
func TestJoinKeyExactBeyond16Bits(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	a := tensor.New(2, 70000)
	a.Append([]int{0, 0}, 1)
	b := tensor.New(70000, 2)
	b.Append([]int{65536, 1}, 1)
	tiles := map[string]int{"i": 2, "k": 70000, "j": 2}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", b, tiles),
	}
	for _, generic := range []bool{false, true} {
		res, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true, ForceGeneric: generic})
		if err != nil {
			t.Fatal(err)
		}
		if res.MACs != 0 || res.OutputNNZ != 0 || res.Out.NNZ() != 0 {
			t.Fatalf("generic=%v: MACs=%d OutputNNZ=%d collected nnz=%d, want all 0",
				generic, res.MACs, res.OutputNNZ, res.Out.NNZ())
		}
	}
}

// TestMeasureEmptyOperand: an empty input has no root fiber, so it must
// empty its product on both backends instead of indexing past the
// outer CSF's segment array.
func TestMeasureEmptyOperand(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	b := gen.UniformRandom(rand.New(rand.NewSource(5)), 20, 20, 40)
	tiles := map[string]int{"i": 4, "k": 4, "j": 4}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", tensor.New(20, 20), tiles),
		"B": tileFor(t, e, "B", b, tiles),
	}
	for _, generic := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			res, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true, ForceGeneric: generic, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total() != 0 || res.MACs != 0 || res.Out.NNZ() != 0 {
				t.Fatalf("generic=%v workers=%d: traffic %+v on an empty operand, want none",
					generic, workers, res.Traffic)
			}
		}
	}
}

func backendLabel(generic bool, workers, tile int, opts string) string {
	b := "engine"
	if generic {
		b = "generic"
	}
	return b + "/" + opts + "/tile=" + itoa(tile) + "/workers=" + itoa(workers)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestDifferentialPackedTiles repeats the comparison on packed
// super-tiles: the engine predecodes member tiles with origin rebasing,
// which must match the walker's decode exactly.
func TestDifferentialPackedTiles(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	e := einsum.SpMSpMIKJ()
	a := gen.PowerLawGraph(r, 64, 700, 1.6)
	b := a.Transpose()
	base := map[string]int{"i": 8, "k": 8, "j": 8}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, base),
		"B": tileFor(t, e, "B", b, base),
	}
	factors := map[string][]int{"A": {4, 2}, "B": {2, 4}}
	for name, tt := range tens {
		packed, err := tiling.PackTiles(tt, factors[name])
		if err != nil {
			t.Fatal(err)
		}
		tens[name] = packed
	}
	for _, workers := range []int{1, 8} {
		eng, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true, Workers: workers, ForceGeneric: true})
		if err != nil {
			t.Fatal(err)
		}
		if !eng.Specialized || gen.Specialized {
			t.Fatalf("workers=%d: Specialized flags wrong: engine=%v generic=%v",
				workers, eng.Specialized, gen.Specialized)
		}
		if !reflect.DeepEqual(eng.Traffic, gen.Traffic) {
			t.Fatalf("workers=%d: packed-tile traffic diverges:\n got %+v\nwant %+v",
				workers, eng.Traffic, gen.Traffic)
		}
		if !tensor.Equal(eng.Out, gen.Out) {
			t.Fatalf("workers=%d: packed-tile output not bit-identical", workers)
		}
	}
}

// TestEngineStaleBits pins the dense path's reset: every bit is zero
// between scopes, so bits set by an earlier scope on the same tile, by
// a scope a panic cut short, or by a wider plan that used the same
// pooled scratch are never counted. A flush that skips its reset leaves
// bits behind after the last scope and undercounts the next scope's
// cells; a release that skips clearing an open scope hands stale bits
// to the next plan.
func TestEngineStaleBits(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	a := gen.UniformRandom(rand.New(rand.NewSource(71)), 64, 64, 600)
	type plan struct {
		r    *runner
		p    *enginePlan
		want Traffic
	}
	compile := func(tiles map[string]int) plan {
		tens := map[string]*tiling.TiledTensor{
			"A": tileFor(t, e, "A", a, tiles),
			"B": tileFor(t, e, "B", a.Transpose(), tiles),
		}
		want, err := MeasureCtx(context.Background(), e, tens, &Options{ForceGeneric: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRunner(e, tens, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := compileEngine(context.Background(), r)
		if p == nil || p.list || !p.countInLeaf {
			t.Fatal("plan must compile onto the dense path, counting in the leaf")
		}
		return plan{r, p, want.Traffic}
	}
	// Eight scopes on one 64² output tile, then 4×16 tiles.
	wide := compile(map[string]int{"i": 64, "k": 8, "j": 64})
	narrow := compile(map[string]int{"i": 4, "k": 8, "j": 16})

	freeScratch.Lock()
	freeScratch.list = nil
	freeScratch.Unlock()
	run := func(pl plan, label string) *engineScratch {
		s := newEngineState(pl.p)
		for vi := range pl.p.topVals {
			s.runTop(vi)
		}
		for i, w := range s.sc.bits[:cap(s.sc.bits)] {
			if w != 0 {
				t.Fatalf("%s: word %d holds %#x after the last scope", label, i, w)
			}
		}
		s.mergeInto(pl.r, true)
		if !reflect.DeepEqual(pl.r.traffic, pl.want) {
			t.Fatalf("%s: traffic diverges from the walker:\n got %+v\nwant %+v", label, pl.r.traffic, pl.want)
		}
		sc := s.sc
		s.release()
		return sc
	}
	sc := run(wide, "wide")
	// A scope cut short: bits set, no flush.
	s := newEngineState(wide.p)
	if s.sc != sc {
		t.Fatal("the pool did not hand back the released scratch")
	}
	s.beginTile()
	for k := uint64(0); k < 64*64; k += 7 {
		s.touch(k)
	}
	s.release()
	if got := run(narrow, "narrow after wide"); got != sc {
		t.Fatal("the narrow plan did not reuse the wide plan's scratch")
	}
}
