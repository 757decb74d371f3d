package exec

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"d2t2/internal/einsum"
	"d2t2/internal/formats"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// tileFor tiles t for the given occurrence of e with per-index tile sizes.
func tileFor(t testing.TB, e *einsum.Expr, name string, m *tensor.COO, tileOf map[string]int) *tiling.TiledTensor {
	t.Helper()
	ref, err := e.Input(name)
	if err != nil {
		t.Fatal(err)
	}
	dims := make([]int, len(ref.Indices))
	for a, ix := range ref.Indices {
		td, ok := tileOf[ix]
		if !ok {
			t.Fatalf("no tile size for index %q", ix)
		}
		dims[a] = td
	}
	tt, err := tiling.NewCtx(context.Background(), m, dims, e.LevelOrder(ref), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func measureSpMSpM(t *testing.T, e *einsum.Expr, a, b *tensor.COO, tiles map[string]int, opts *Options) *Result {
	t.Helper()
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", b, tiles),
	}
	res, err := MeasureCtx(context.Background(), e, tens, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGustavsonCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := gen.UniformRandom(r, 30, 40, 150)
	b := gen.UniformRandom(r, 40, 25, 150)
	e := einsum.SpMSpMIKJ()
	res := measureSpMSpM(t, e, a, b, map[string]int{"i": 8, "k": 8, "j": 8}, &Options{CollectOutput: true})

	ref, err := formats.MulGustavson(formats.MustBuildCSR(a), formats.MustBuildCSR(b))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(res.Out, ref.ToCOO()) {
		t.Fatal("tiled Gustavson output differs from CSR reference")
	}
	if res.MACs == 0 || res.TileIterations == 0 {
		t.Fatalf("no work recorded: MACs=%d iters=%d", res.MACs, res.TileIterations)
	}
}

func TestInnerProductCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := gen.UniformRandom(r, 30, 40, 120)
	bt := gen.UniformRandom(r, 25, 40, 120) // B(j,k): already transposed layout
	e := einsum.SpMSpMIJK()
	res := measureSpMSpM(t, e, a, bt, map[string]int{"i": 8, "j": 8, "k": 8}, &Options{CollectOutput: true})

	ref, err := formats.MulGustavson(formats.MustBuildCSR(a), formats.MustBuildCSR(bt.Transpose()))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(res.Out, ref.ToCOO()) {
		t.Fatal("inner-product output differs from reference")
	}
}

func TestBothDataflowsAgreeOnOutput(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := gen.PowerLawGraph(r, 60, 300, 1.5)
	at := a.Transpose()
	ikj := measureSpMSpM(t, einsum.SpMSpMIKJ(), a, at,
		map[string]int{"i": 16, "k": 16, "j": 16}, &Options{CollectOutput: true})
	// SpMSpM-ijk computes A×Bᵀ with B(j,k); pass B = A so C = A·Aᵀ too.
	ijk := measureSpMSpM(t, einsum.SpMSpMIJK(), a, a,
		map[string]int{"i": 16, "j": 16, "k": 16}, &Options{CollectOutput: true})
	if !tensor.Equal(ikj.Out, ijk.Out) {
		t.Fatal("dataflows disagree on A·Aᵀ")
	}
}

// TestFetchCountsHandExample verifies the fetch-space accounting on a
// fully dense small case where counts are analytic.
func TestFetchCountsHandExample(t *testing.T) {
	// Dense 4x4 matrices, 2x2 tiles: outer grid 2x2, all tiles present.
	dense := func() *tensor.COO {
		m := tensor.New(4, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m.Append([]int{i, j}, 1)
			}
		}
		return m
	}
	e := einsum.SpMSpMIKJ()
	res := measureSpMSpM(t, e, dense(), dense(),
		map[string]int{"i": 2, "k": 2, "j": 2}, &Options{ValuesOnly: true})

	// A(i,k) fetched once per (i',k'): 4 tiles × 4 values.
	if got := res.Input["A"]; got != 16 {
		t.Fatalf("A traffic = %d, want 16", got)
	}
	// B(k,j) fetched once per (i',k',j'): 8 fetches × 4 values.
	if got := res.Input["B"]; got != 32 {
		t.Fatalf("B traffic = %d, want 32", got)
	}
	// Output written once per (i',k',j') leaf: 8 partials × 4 values.
	if res.Output != 32 || res.OutputWrites != 8 {
		t.Fatalf("output traffic = %d in %d writes, want 32 in 8", res.Output, res.OutputWrites)
	}
	if res.TileIterations != 8 {
		t.Fatalf("tile iterations = %d, want 8", res.TileIterations)
	}
	// 2x2 tile product: 8 MACs per pair.
	if res.MACs != 64 {
		t.Fatalf("MACs = %d, want 64", res.MACs)
	}
}

// TestOutputStationarity: in inner-product order the output accumulates
// on-chip across k', so it is written once per (i',j').
func TestOutputStationarityIJK(t *testing.T) {
	dense := func() *tensor.COO {
		m := tensor.New(4, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m.Append([]int{i, j}, 1)
			}
		}
		return m
	}
	e := einsum.SpMSpMIJK()
	res := measureSpMSpM(t, e, dense(), dense(),
		map[string]int{"i": 2, "j": 2, "k": 2}, &Options{ValuesOnly: true})
	// Writes once per (i',j') = 4; both inputs streamed per (i',j',k') = 8.
	if res.OutputWrites != 4 {
		t.Fatalf("output writes = %d, want 4", res.OutputWrites)
	}
	if res.Input["A"] != 32 || res.Input["B"] != 32 {
		t.Fatalf("input traffic = %v, want 32/32", res.Input)
	}
}

// TestTileFilteringSkipsDeadColumns reproduces the Figure 3 effect: an
// empty B row-of-tiles k' must suppress the fetch of A tiles in column k'.
func TestTileFilteringSkipsDeadColumns(t *testing.T) {
	a := tensor.New(4, 4)
	// A has entries in k-tiles 0 and 1.
	a.Append([]int{0, 0}, 1)
	a.Append([]int{0, 2}, 1)
	b := tensor.New(4, 4)
	// B has rows only in k-tile 0: k' = 1 is dead.
	b.Append([]int{0, 0}, 1)
	b.Append([]int{1, 1}, 1)

	e := einsum.SpMSpMIKJ()
	res := measureSpMSpM(t, e, a, b, map[string]int{"i": 2, "k": 2, "j": 2},
		&Options{ValuesOnly: true})
	// Only A[0,0] tile (1 value) is fetched; A tile at k'=1 is skipped.
	if got := res.Input["A"]; got != 1 {
		t.Fatalf("A traffic = %d, want 1 (dead k' not skipped?)", got)
	}
}

// TestReverseFilteringSkipsB: a B tile with no matching A column tile is
// never fetched.
func TestReverseFilteringSkipsB(t *testing.T) {
	a := tensor.New(4, 4)
	a.Append([]int{0, 0}, 1) // only k-tile 0
	b := tensor.New(4, 4)
	b.Append([]int{0, 0}, 1) // k-tile 0: live
	b.Append([]int{3, 3}, 1) // k-tile 1: dead (no A)
	e := einsum.SpMSpMIKJ()
	res := measureSpMSpM(t, e, a, b, map[string]int{"i": 2, "k": 2, "j": 2},
		&Options{ValuesOnly: true})
	if got := res.Input["B"]; got != 1 {
		t.Fatalf("B traffic = %d, want 1", got)
	}
}

func TestMeasureErrors(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	a := tensor.New(4, 4)
	a.Append([]int{0, 0}, 1)
	ttA, _ := tiling.NewCtx(context.Background(), a, []int{2, 2}, []int{0, 1}, 0)
	// Missing B.
	if _, err := MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{"A": ttA}, nil); err == nil {
		t.Fatal("missing tensor accepted")
	}
	// Mismatched tile size on shared index k.
	ttB, _ := tiling.NewCtx(context.Background(), a, []int{4, 2}, []int{0, 1}, 0)
	if _, err := MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{"A": ttA, "B": ttB}, nil); err == nil {
		t.Fatal("tile-size mismatch accepted")
	}
	// Wrong level order for B (needs k-major which for B(k,j) is natural;
	// give it j-major instead).
	ttB2, _ := tiling.NewCtx(context.Background(), a, []int{2, 2}, []int{1, 0}, 0)
	if _, err := MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{"A": ttA, "B": ttB2}, nil); err == nil {
		t.Fatal("wrong level order accepted")
	}
}

// TestOptionsValidation: negative buffer knobs would silently flip the
// overflow arithmetic, so MeasureCtx must reject them loudly instead of
// producing garbage traffic.
func TestOptionsValidation(t *testing.T) {
	e := einsum.SpMSpMIKJ()
	a := tensor.New(4, 4)
	a.Append([]int{0, 0}, 1)
	ttA, _ := tiling.NewCtx(context.Background(), a, []int{2, 2}, []int{0, 1}, 0)
	ttB, _ := tiling.NewCtx(context.Background(), a, []int{2, 2}, []int{0, 1}, 0)
	tens := map[string]*tiling.TiledTensor{"A": ttA, "B": ttB}
	cases := []struct {
		name string
		o    *Options
		want string
	}{
		{"negative input buffer", &Options{InputBufferWords: -1}, "InputBufferWords"},
		{"negative overflow extra", &Options{OverflowExtra: -2}, "OverflowExtra"},
		{"negative output buffer", &Options{OutputBufferWords: -3}, "OutputBufferWords"},
	}
	for _, tc := range cases {
		_, err := MeasureCtx(context.Background(), e, tens, tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
	// Zero values stay valid (the overflow model simply off).
	if _, err := MeasureCtx(context.Background(), e, tens, &Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

func TestTTMCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	c := gen.RandomTensor3(r, 12, 10, 8, 200, [3]float64{0, 0, 0})
	b := gen.UniformRandom(r, 9, 8, 30)
	e := einsum.TTM() // X(i,j,k) = C(i,j,l)*B(k,l) | i,j,l,k
	tens := map[string]*tiling.TiledTensor{
		"C": tileFor(t, e, "C", c, map[string]int{"i": 4, "j": 4, "l": 4}),
		"B": tileFor(t, e, "B", b, map[string]int{"k": 4, "l": 4}),
	}
	res, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	// Dense oracle.
	want := make(map[[3]int]float64)
	for p := 0; p < c.NNZ(); p++ {
		for q := 0; q < b.NNZ(); q++ {
			if c.Crds[2][p] == b.Crds[1][q] {
				want[[3]int{c.Crds[0][p], c.Crds[1][p], b.Crds[0][q]}] += c.Vals[p] * b.Vals[q]
			}
		}
	}
	oracle := tensor.New(12, 10, 9)
	for k, v := range want {
		oracle.Append([]int{k[0], k[1], k[2]}, v)
	}
	oracle.Dedup()
	if !tensor.AlmostEqual(res.Out, oracle, 1e-9) {
		t.Fatal("TTM output differs from oracle")
	}
}

func TestMTTKRPCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := gen.RandomTensor3(r, 10, 8, 6, 150, [3]float64{0, 0, 0})
	b := gen.UniformRandom(r, 7, 8, 25)
	c := gen.UniformRandom(r, 7, 6, 25)
	e := einsum.MTTKRP3() // D(i,j) = A(i,k,l)*B(j,k)*C(j,l) | i,k,l,j
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, map[string]int{"i": 4, "k": 4, "l": 4}),
		"B": tileFor(t, e, "B", b, map[string]int{"j": 4, "k": 4}),
		"C": tileFor(t, e, "C", c, map[string]int{"j": 4, "l": 4}),
	}
	res, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]int]float64)
	for p := 0; p < a.NNZ(); p++ {
		for q := 0; q < b.NNZ(); q++ {
			if a.Crds[1][p] != b.Crds[1][q] {
				continue
			}
			for s := 0; s < c.NNZ(); s++ {
				if a.Crds[2][p] == c.Crds[1][s] && b.Crds[0][q] == c.Crds[0][s] {
					want[[2]int{a.Crds[0][p], b.Crds[0][q]}] += a.Vals[p] * b.Vals[q] * c.Vals[s]
				}
			}
		}
	}
	oracle := tensor.New(10, 7)
	for k, v := range want {
		oracle.Append([]int{k[0], k[1]}, v)
	}
	oracle.Dedup()
	if !tensor.AlmostEqual(res.Out, oracle, 1e-9) {
		t.Fatal("MTTKRP output differs from oracle")
	}
	if res.MACs == 0 {
		t.Fatal("no MACs counted")
	}
}

func TestAdditionKernel(t *testing.T) {
	// D(i,j) = (A(i,j) + B(i,j)) — union semantics.
	e := einsum.MustParse("D(i,j) = A(i,j) + B(i,j) | order: i,j")
	a := tensor.New(4, 4)
	a.Append([]int{0, 0}, 1)
	b := tensor.New(4, 4)
	b.Append([]int{3, 3}, 2)
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, map[string]int{"i": 2, "j": 2}),
		"B": tileFor(t, e, "B", b, map[string]int{"i": 2, "j": 2}),
	}
	res, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out.NNZ() != 2 {
		t.Fatalf("union output nnz = %d, want 2", res.Out.NNZ())
	}
	d := res.Out.ToDense()
	if d[0][0] != 1 || d[3][3] != 2 {
		t.Fatalf("addition values wrong: %v", d)
	}
}

func TestQuickGustavsonMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16 + r.Intn(32)
		a := gen.UniformRandom(r, n, n, 4*n)
		b := gen.UniformRandom(r, n, n, 4*n)
		e := einsum.SpMSpMIKJ()
		ti := 1 << r.Intn(4)
		tiles := map[string]int{"i": ti, "k": 1 << r.Intn(4), "j": 1 << r.Intn(4)}
		refA, _ := e.Input("A")
		refB, _ := e.Input("B")
		ttA, err := tiling.NewCtx(context.Background(), a, []int{tiles["i"], tiles["k"]}, e.LevelOrder(refA), 0)
		if err != nil {
			return false
		}
		ttB, err := tiling.NewCtx(context.Background(), b, []int{tiles["k"], tiles["j"]}, e.LevelOrder(refB), 0)
		if err != nil {
			return false
		}
		res, err := MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{"A": ttA, "B": ttB},
			&Options{CollectOutput: true})
		if err != nil {
			return false
		}
		ref, err := formats.MulGustavson(formats.MustBuildCSR(a), formats.MustBuildCSR(b))
		if err != nil {
			return false
		}
		return tensor.Equal(res.Out, ref.ToCOO())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTrafficInvariants: traffic is monotone in the sense that every
// input's traffic is at least its total data size when all tiles are live
// and fetched at least once, and tile iterations bound MAC-bearing pairs.
func TestQuickTrafficInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := gen.Banded(r, 64, 4, 4)
		at := a.Transpose()
		e := einsum.SpMSpMIKJ()
		refA, _ := e.Input("A")
		refB, _ := e.Input("B")
		ttA, _ := tiling.NewCtx(context.Background(), a, []int{8, 8}, e.LevelOrder(refA), 0)
		ttB, _ := tiling.NewCtx(context.Background(), at, []int{8, 8}, e.LevelOrder(refB), 0)
		res, err := MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{"A": ttA, "B": ttB}, nil)
		if err != nil {
			return false
		}
		// A is fetched at most once per own tile (never more in ikj).
		if res.Input["A"] > int64(ttA.TotalFootprint) {
			return false
		}
		// B's traffic is at least one fetch of every tile that has a
		// matching A column (here: all of them, banded symmetric).
		if res.Input["B"] < int64(ttB.TotalFootprint) {
			return false
		}
		return res.Output > 0 && res.MACs > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedAddMulKernel checks the full fused expression of the paper's
// §4.2.1 example, D(i,j) = (A(i,j) + B(i,j)) * C(i,j), against a dense
// oracle — exercising sum-of-products normalization, shared occurrences
// across summands and union/intersection co-iteration.
func TestFusedAddMulKernel(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	n := 24
	a := gen.UniformRandom(r, n, n, 60)
	bm := gen.UniformRandom(r, n, n, 60)
	cm := gen.UniformRandom(r, n, n, 120)
	e := einsum.MustParse("D(i,j) = (A(i,j) + B(i,j)) * C(i,j) | order: i,j")
	tiles := map[string]int{"i": 6, "j": 6}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", bm, tiles),
		"C": tileFor(t, e, "C", cm, tiles),
	}
	res, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := a.ToDense(), bm.ToDense(), cm.ToDense()
	oracle := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := (da[i][j] + db[i][j]) * dc[i][j]; v != 0 {
				oracle.Append([]int{i, j}, v)
			}
		}
	}
	if !tensor.AlmostEqual(res.Out, oracle, 1e-9) {
		t.Fatal("fused kernel output differs from dense oracle")
	}
	// Filtering: an A tile with no matching C tile must not be fetched.
	// (Soft check: A traffic is at most A's total footprint.)
	ttA := tens["A"]
	if res.Input["A"] > int64(ttA.TotalFootprint) {
		t.Fatalf("A over-fetched: %d > %d", res.Input["A"], ttA.TotalFootprint)
	}
}

// TestFusedFilteringSkips: in (A+B)*C, an A tile in a region where C is
// empty must not be fetched; an A tile must be fetched even where B is
// empty (addition is a union).
func TestFusedFilteringSkips(t *testing.T) {
	e := einsum.MustParse("D(i,j) = (A(i,j) + B(i,j)) * C(i,j) | order: i,j")
	a := tensor.New(4, 4)
	a.Append([]int{0, 0}, 1) // C present here
	a.Append([]int{3, 3}, 1) // C absent here
	bm := tensor.New(4, 4)
	bm.Append([]int{0, 1}, 5) // same tile as A's first entry
	cm := tensor.New(4, 4)
	cm.Append([]int{0, 0}, 2)
	cm.Append([]int{0, 1}, 3)
	tiles := map[string]int{"i": 2, "j": 2}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", bm, tiles),
		"C": tileFor(t, e, "C", cm, tiles),
	}
	res, err := MeasureCtx(context.Background(), e, tens, &Options{ValuesOnly: true, CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	// Only A's (0,0) tile is fetched (1 value); the (3,3) tile has no C.
	if res.Input["A"] != 1 {
		t.Fatalf("A traffic = %d, want 1", res.Input["A"])
	}
	// Result: D(0,0) = 1*2 = 2; D(0,1) = 5*3 = 15.
	d := res.Out.ToDense()
	if d[0][0] != 2 || d[0][1] != 15 {
		t.Fatalf("fused result wrong: %v", d)
	}
}

// TestSDDMMCorrectness validates the fused sampled matmul kernel against
// a dense oracle: E(i,j) = S(i,j) * Σ_k A(i,k)B(k,j). The mask S filters
// outer iterations: a (i',j') region with no mask entries must skip all
// A/B fetches below it.
func TestSDDMMCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	n := 24
	s := gen.UniformRandom(r, n, n, 40)
	a := gen.UniformRandom(r, n, n, 120)
	bm := gen.UniformRandom(r, n, n, 120)
	e := einsum.SDDMM()
	tiles := map[string]int{"i": 6, "j": 6, "k": 6}
	tens := map[string]*tiling.TiledTensor{
		"S": tileFor(t, e, "S", s, tiles),
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", bm, tiles),
	}
	res, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, da, db := s.ToDense(), a.ToDense(), bm.ToDense()
	oracle := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if ds[i][j] == 0 {
				continue
			}
			acc := 0.0
			for k := 0; k < n; k++ {
				acc += da[i][k] * db[k][j]
			}
			if v := ds[i][j] * acc; v != 0 {
				oracle.Append([]int{i, j}, v)
			}
		}
	}
	if !tensor.AlmostEqual(res.Out, oracle, 1e-9) {
		t.Fatal("SDDMM output differs from dense oracle")
	}
}

// TestSDDMMMaskFiltering: with an empty mask, nothing at all is fetched.
func TestSDDMMMaskFiltering(t *testing.T) {
	e := einsum.SDDMM()
	s := tensor.New(8, 8)
	s.Append([]int{0, 0}, 1) // only one mask tile
	a := tensor.New(8, 8)
	a.Append([]int{0, 0}, 2)
	a.Append([]int{7, 7}, 3) // far from the mask: never fetched
	bm := tensor.New(8, 8)
	bm.Append([]int{0, 0}, 4)
	bm.Append([]int{7, 7}, 5)
	tiles := map[string]int{"i": 2, "j": 2, "k": 2}
	tens := map[string]*tiling.TiledTensor{
		"S": tileFor(t, e, "S", s, tiles),
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", bm, tiles),
	}
	res, err := MeasureCtx(context.Background(), e, tens, &Options{ValuesOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Input["A"] != 1 || res.Input["B"] != 1 {
		t.Fatalf("mask filtering failed: A=%d B=%d, want 1/1", res.Input["A"], res.Input["B"])
	}
}

// TestOverflowAccounting exercises the Tailors-style overbooked buffer:
// tiles larger than the buffer pay extra streaming traffic and are
// counted in OverflowFetches.
func TestOverflowAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := gen.UniformRandom(r, 32, 32, 600) // dense-ish tiles
	e := einsum.SpMSpMIKJ()
	tiles := map[string]int{"i": 16, "k": 16, "j": 16}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", a.Transpose(), tiles),
	}
	plain, err := MeasureCtx(context.Background(), e, tens, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a buffer below the largest tile so overflows occur.
	maxTile := 0
	for _, tt := range tens {
		if tt.MaxFootprint > maxTile {
			maxTile = tt.MaxFootprint
		}
	}
	over, err := MeasureCtx(context.Background(), e, tens, &Options{InputBufferWords: maxTile / 2})
	if err != nil {
		t.Fatal(err)
	}
	if over.OverflowFetches == 0 {
		t.Fatal("no overflow fetches recorded")
	}
	if over.InputTotal() <= plain.InputTotal() {
		t.Fatalf("overflow did not add traffic: %d vs %d", over.InputTotal(), plain.InputTotal())
	}
	if plain.OverflowFetches != 0 {
		t.Fatal("overflow counted without a buffer bound")
	}
	// Larger penalty multiplies the excess.
	over2, err := MeasureCtx(context.Background(), e, tens, &Options{InputBufferWords: maxTile / 2, OverflowExtra: 3})
	if err != nil {
		t.Fatal(err)
	}
	if over2.InputTotal() <= over.InputTotal() {
		t.Fatal("OverflowExtra had no effect")
	}
}

// TestParallelMatchesSerial: the partitioned execution must produce
// byte-identical traffic counters and the same output tensor.
func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	a := gen.PowerLawGraph(r, 256, 3000, 1.6)
	e := einsum.SpMSpMIKJ()
	tiles := map[string]int{"i": 16, "k": 16, "j": 16}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", a.Transpose(), tiles),
	}
	serial, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Input["A"] != parallel.Input["A"] || serial.Input["B"] != parallel.Input["B"] {
		t.Fatalf("input traffic differs: %v vs %v", serial.Input, parallel.Input)
	}
	if serial.Output != parallel.Output || serial.MACs != parallel.MACs ||
		serial.TileIterations != parallel.TileIterations ||
		serial.OutputWrites != parallel.OutputWrites {
		t.Fatalf("counters differ: %+v vs %+v", serial.Traffic, parallel.Traffic)
	}
	if !tensor.AlmostEqual(serial.Out, parallel.Out, 1e-12) {
		t.Fatal("outputs differ")
	}
}

// TestParallelIgnoredWhenUnsafe: a kernel whose output lacks the
// outermost index falls back to serial (still correct).
func TestParallelIgnoredWhenUnsafe(t *testing.T) {
	// Order k,i,j: output C(i,j) does not carry k (the outermost index).
	e := einsum.MustParse("C(i,j) = A(i,k) * B(k,j) | order: k,i,j")
	r := rand.New(rand.NewSource(16))
	a := gen.UniformRandom(r, 64, 64, 400)
	tiles := map[string]int{"i": 16, "k": 16, "j": 16}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", a.Transpose(), tiles),
	}
	serial, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MeasureCtx(context.Background(), e, tens, &Options{CollectOutput: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AlmostEqual(serial.Out, par.Out, 1e-12) {
		t.Fatal("unsafe-parallel fallback broke correctness")
	}
}

// TestOutputOverflowStreaming: an output tile larger than the output
// buffer is streamed in chunks (extra writes + chunk overhead).
func TestOutputOverflowStreaming(t *testing.T) {
	dense := func() *tensor.COO {
		m := tensor.New(8, 8)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				m.Append([]int{i, j}, 1)
			}
		}
		return m
	}
	e := einsum.SpMSpMIJK() // output stationary per (i',j'): big tiles
	tiles := map[string]int{"i": 8, "j": 8, "k": 8}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", dense(), tiles),
		"B": tileFor(t, e, "B", dense(), tiles),
	}
	plain, err := MeasureCtx(context.Background(), e, tens, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.OutputOverflows != 0 {
		t.Fatal("overflow without a bound")
	}
	// The single 8x8 output tile (~147 words) against a 50-word buffer.
	over, err := MeasureCtx(context.Background(), e, tens, &Options{OutputBufferWords: 50})
	if err != nil {
		t.Fatal(err)
	}
	if over.OutputOverflows == 0 {
		t.Fatal("no output overflow recorded")
	}
	if over.Output <= plain.Output || over.OutputWrites <= plain.OutputWrites {
		t.Fatalf("overflow added no cost: %d/%d vs %d/%d",
			over.Output, over.OutputWrites, plain.Output, plain.OutputWrites)
	}
	// The value payload is unchanged — only chunking overhead is added.
	if over.OutputNNZ != plain.OutputNNZ {
		t.Fatal("overflow changed output nnz")
	}
}

// TestPackedTilesExecution: executing packed super-tiles must produce
// exactly the same output values as executing the retiled configuration
// (the packed directory only changes footprints, not semantics).
func TestPackedTilesExecution(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := gen.Banded(r, 128, 4, 6)
	e := einsum.SpMSpMIKJ()
	base := map[string]int{"i": 8, "k": 8, "j": 8}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, base),
		"B": tileFor(t, e, "B", a.Transpose(), base),
	}
	// A(i,k) grows (4x, 2x); B(k,j) must grow its shared k by the same
	// 2x and j by 4x so the outer grids stay aligned.
	factors := map[string][]int{"A": {4, 2}, "B": {2, 4}}
	packed := make(map[string]*tiling.TiledTensor)
	for name, tt := range tens {
		p, err := tiling.PackTiles(tt, factors[name])
		if err != nil {
			t.Fatal(err)
		}
		packed[name] = p
	}
	want, err := MeasureCtx(context.Background(), e, map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, map[string]int{"i": 32, "k": 16, "j": 32}),
		"B": tileFor(t, e, "B", a.Transpose(), map[string]int{"i": 32, "k": 16, "j": 32}),
	}, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureCtx(context.Background(), e, packed, &Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AlmostEqual(got.Out, want.Out, 1e-9) {
		t.Fatal("packed execution produced different values")
	}
	// Packed tiles carry directory overhead: traffic is at least the
	// retiled configuration's.
	if got.InputTotal() < want.InputTotal() {
		t.Fatalf("packed input traffic %d below retiled %d", got.InputTotal(), want.InputTotal())
	}
}
