package exec

import (
	"context"
	"math"
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
	// Output tiles at and above maxStampCells cells, which the engine
	// counts with dense stamps and a coordinate list respectively.
	for _, c := range wideCases() {
		c := c
		t.Run("Wide"+c.name, func(t *testing.T) { diffWide(t, c) })
	}
}

// wideCase is one kernel tiled with an explicit per-index tile map whose
// output tile is at or above maxStampCells cells — the shapes the engine
// counts with a coordinate list (or, exactly at the cap, dense stamps).
type wideCase struct {
	name   string
	expr   *einsum.Expr
	inputs map[string]*tensor.COO
	tiles  map[string]int
	list   bool // whether the plan must take the list path
}

// wideCases builds large, very sparse inputs once: output tiles of
// 1100², 160·160·120 and exactly 1024² cells.
func wideCases() []wideCase {
	r := rand.New(rand.NewSource(53))
	// ~33k partial products in one full-width scope: the key list
	// compacts before it grows.
	a := gen.UniformRandom(r, 1100, 1100, 6000)
	sq := gen.UniformRandom(r, 2048, 2048, 3000)
	c := gen.RandomTensor3(r, 160, 160, 50, 2500, [3]float64{0, 0, 0})
	b := gen.UniformRandom(r, 120, 50, 400)
	return []wideCase{
		{"IKJFullWidth", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": a.Transpose()},
			map[string]int{"i": 1100, "k": 1100, "j": 1100}, true},
		{"IKJWideRows", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": a, "B": a.Transpose()},
			map[string]int{"i": 1100, "k": 37, "j": 1100}, true},
		{"IJKFullWidth", einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": a, "B": a.Clone()},
			map[string]int{"i": 1100, "j": 1100, "k": 1100}, true},
		{"IJKWideOutput", einsum.SpMSpMIJK(), map[string]*tensor.COO{"A": a, "B": a.Clone()},
			map[string]int{"i": 1100, "j": 1100, "k": 100}, true},
		{"TTMWideTile", einsum.TTM(), map[string]*tensor.COO{"C": c, "B": b},
			map[string]int{"i": 160, "j": 160, "l": 10, "k": 120}, true},
		{"IKJAtDenseCap", einsum.SpMSpMIKJ(), map[string]*tensor.COO{"A": sq, "B": sq.Transpose()},
			map[string]int{"i": 1024, "k": 256, "j": 1024}, false},
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
	p := compileEngine(r)
	if p == nil || p.list != c.list {
		t.Fatalf("compileEngine: plan=%v, want list path %v", p != nil, c.list)
	}
	for _, os := range diffOptions() {
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
			if !reflect.DeepEqual(got.Traffic, want.Traffic) {
				t.Fatalf("%s: traffic diverges from oracle:\n got %+v\nwant %+v",
					label, got.Traffic, want.Traffic)
			}
			if !tensor.Equal(got.Out, want.Out) {
				t.Fatalf("%s: collected output is not bit-identical to oracle", label)
			}
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

// TestEngineEpochWraparound runs the dense path through the stamp
// epoch's wraparound with stale stamps below it: the wrap must clear
// them, or cells stamped in an earlier cycle would read as already
// touched and undercount the output.
func TestEngineEpochWraparound(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	a := gen.UniformRandom(rand.New(rand.NewSource(71)), 64, 64, 600)
	tiles := map[string]int{"i": 4, "k": 8, "j": 16}
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
	p := compileEngine(r)
	if p == nil || p.list {
		t.Fatal("plan must compile onto the dense path")
	}
	s := newEngineState(p)
	defer s.release()
	// The second scope wraps to epoch 1, which every stale stamp holds.
	s.sc.epoch = math.MaxUint16 - 1
	for i := range s.sc.stamp {
		s.sc.stamp[i] = 1
	}
	for vi := range p.topVals {
		s.runTop(vi)
	}
	if s.sc.epoch > 1000 {
		t.Fatalf("epoch %d: the run never wrapped", s.sc.epoch)
	}
	s.mergeInto(r)
	if !reflect.DeepEqual(r.traffic, want.Traffic) {
		t.Fatalf("traffic across the wraparound diverges from the walker:\n got %+v\nwant %+v", r.traffic, want.Traffic)
	}
}
