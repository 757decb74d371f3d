package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

func denseMatrix(n int) *tensor.COO {
	m := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Append([]int{i, j}, 1)
		}
	}
	return m
}

func diagMatrix(n int) *tensor.COO {
	m := tensor.New(n, n)
	for i := 0; i < n; i++ {
		m.Append([]int{i, i}, 1)
	}
	return m
}

func TestCollectDense(t *testing.T) {
	m := denseMatrix(16)
	s, tt, err := Collect(m, []int{4, 4}, nil, &Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tt.NumTiles() != 16 {
		t.Fatalf("tiles = %d", tt.NumTiles())
	}
	// Every outer level fully occupied.
	for l, p := range s.PrTileIdx {
		if math.Abs(p-1) > 1e-12 {
			t.Fatalf("PrTileIdx[%d] = %v, want 1", l, p)
		}
	}
	if math.Abs(s.PTileBase()-1) > 1e-12 {
		t.Fatalf("PTile = %v", s.PTileBase())
	}
	// Every inner level fully dense.
	for l, p := range s.ProbIndex {
		if math.Abs(p-1) > 1e-12 {
			t.Fatalf("ProbIndex[%d] = %v, want 1", l, p)
		}
	}
	if s.DensityBase() != 1 {
		t.Fatalf("density = %v", s.DensityBase())
	}
	// All tiles identical.
	if s.MaxTile != int(s.SizeTile) {
		t.Fatalf("SizeTile %v != MaxTile %d for uniform tiles", s.SizeTile, s.MaxTile)
	}
}

func TestCollectDiagonal(t *testing.T) {
	m := diagMatrix(16)
	s, tt, err := Collect(m, []int{4, 4}, nil, &Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tt.NumTiles() != 4 {
		t.Fatalf("diagonal tiles = %d", tt.NumTiles())
	}
	// P_tile = 4/16.
	if math.Abs(s.PTileBase()-0.25) > 1e-12 {
		t.Fatalf("PTile = %v, want 0.25", s.PTileBase())
	}
	// Root level: all 4 row-tiles occupied; second level: 1 of 4 each.
	if math.Abs(s.PrTileIdx[0]-1) > 1e-12 || math.Abs(s.PrTileIdx[1]-0.25) > 1e-12 {
		t.Fatalf("PrTileIdx = %v", s.PrTileIdx)
	}
	// Within a tile: all 4 rows occupied, 1 of 4 columns per row.
	if math.Abs(s.ProbIndex[0]-1) > 1e-12 || math.Abs(s.ProbIndex[1]-0.25) > 1e-12 {
		t.Fatalf("ProbIndex = %v", s.ProbIndex)
	}
}

func TestCorrsDiagonalVsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	diag := gen.Banded(r, 256, 1, 3) // near-diagonal band
	rnd := gen.UniformRandom(r, 256, 256, 768)

	sd, _, err := Collect(diag, []int{16, 16}, nil, &Options{MicroDiv: 2, CorrMaxShift: 32})
	if err != nil {
		t.Fatal(err)
	}
	sr, _, err := Collect(rnd, []int{16, 16}, nil, &Options{MicroDiv: 2, CorrMaxShift: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Banded data: adjacent rows overlap in columns, so Corrs at shift 1
	// must be clearly positive and larger than for random data.
	cd, cr := sd.Corrs[0][1], sr.Corrs[0][1]
	if cd < 0.2 {
		t.Fatalf("banded Corrs[1] = %v, want substantial overlap", cd)
	}
	if cd <= cr {
		t.Fatalf("banded Corrs[1]=%v not above random %v", cd, cr)
	}
	// Both normalize to 1 at shift 0.
	if sd.Corrs[0][0] != 1 || sr.Corrs[0][0] != 1 {
		t.Fatal("Corrs not normalized at shift 0")
	}
	// CorrSum over a tile for banded data must be well above random's.
	if sd.CorrSum(0, 16) <= sr.CorrSum(0, 16) {
		t.Fatalf("CorrSum banded %v <= random %v", sd.CorrSum(0, 16), sr.CorrSum(0, 16))
	}
}

func TestCorrSumExtrapolation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := gen.Banded(r, 128, 2, 4)
	s, _, err := Collect(m, []int{16, 16}, nil, &Options{MicroDiv: 2, CorrMaxShift: 8})
	if err != nil {
		t.Fatal(err)
	}
	in := s.CorrSum(0, 8)
	beyond := s.CorrSum(0, 64)
	if beyond < in {
		t.Fatalf("extrapolated CorrSum %v < in-range %v", beyond, in)
	}
	if s.CorrSum(0, 0) != 1 {
		t.Fatalf("CorrSum(0) = %v", s.CorrSum(0, 0))
	}
}

func TestTileCorrsDenseAndSparse(t *testing.T) {
	dense := tileCorrs([]bool{true, true, true, true, true, true}, 3)
	for s, v := range dense {
		if math.Abs(v-1) > 0.26 { // edge effects shrink long shifts slightly
			t.Fatalf("dense TileCorrs[%d] = %v", s, v)
		}
	}
	sparse := tileCorrs([]bool{true, false, false, false, true, false, false, false}, 3)
	if sparse[0] != 1 {
		t.Fatal("TileCorrs[0] != 1")
	}
	if sparse[1] != 0 || sparse[2] != 0 {
		t.Fatalf("isolated slices should have zero shift correlation: %v", sparse)
	}
}

func TestEOuterMergedLimits(t *testing.T) {
	m := denseMatrix(32)
	s, _, err := Collect(m, []int{4, 4}, nil, &Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Dense occupancy: merging m base tiles divides the iteration count.
	if got := s.EOuterMerged(0, 1); got != 8 {
		t.Fatalf("EOuterMerged(0,1) = %v, want 8", got)
	}
	got := s.EOuterMerged(0, 4)
	if math.Abs(got-2) > 0.8 {
		t.Fatalf("EOuterMerged(0,4) = %v, want ~2", got)
	}
	if exact := s.EOuterExact(0, 4); exact != 2 {
		t.Fatalf("EOuterExact(0,4) = %d, want 2", exact)
	}

	// Sparse uncorrelated occupancy (~20% of slices): merging two tiles
	// must shrink iterations far less than 2x.
	r := rand.New(rand.NewSource(3))
	sp := gen.UniformRandom(r, 4096, 4096, 110)
	ss, _, err := Collect(sp, []int{8, 8}, nil, &Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := ss.EOuterMerged(0, 1)
	merged := ss.EOuterMerged(0, 2)
	if merged < 0.7*base {
		t.Fatalf("uncorrelated merge should not halve iterations: %v -> %v", base, merged)
	}
	// The Eq.18 approximation should track the exact merged count.
	exact := float64(ss.EOuterExact(0, 2))
	if merged < 0.7*exact || merged > 1.3*exact {
		t.Fatalf("EOuterMerged %v deviates from exact %v", merged, exact)
	}
}

func TestEvalShapeMatchesDirectTiling(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := gen.PowerLawGraph(r, 256, 2000, 1.6)
	s, _, err := Collect(m, []int{16, 16}, nil, &Options{MicroDiv: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate a different shape and compare against actually tiling.
	for _, shape := range [][]int{{32, 8}, {8, 32}, {16, 16}, {64, 4}} {
		got, err := s.EvalShape(shape)
		if err != nil {
			t.Fatal(err)
		}
		want, err2 := directShape(m, shape)
		if err2 != nil {
			t.Fatal(err2)
		}
		if got.NumTiles != want.num {
			t.Fatalf("shape %v: NumTiles %d != direct %d", shape, got.NumTiles, want.num)
		}
		if got.Occupied[0] != want.occ0 || got.Occupied[1] != want.occ1 {
			t.Fatalf("shape %v: occupied (%d,%d) != direct (%d,%d)",
				shape, got.Occupied[0], got.Occupied[1], want.occ0, want.occ1)
		}
		// Calibrated footprint aggregation tracks the true retiled
		// footprint within 25%.
		if got.SizeTile < 0.75*want.size || got.SizeTile > 1.25*want.size {
			t.Fatalf("shape %v: SizeTile %v vs direct %v", shape, got.SizeTile, want.size)
		}
	}
}

type directStats struct {
	num, occ0, occ1 int
	size            float64
}

func directShape(m *tensor.COO, shape []int) (directStats, error) {
	s2, tt, err := Collect(m, shape, nil, &Options{MicroDiv: 1})
	if err != nil {
		return directStats{}, err
	}
	return directStats{
		num:  tt.NumTiles(),
		occ0: s2.OccupiedBase(0),
		occ1: s2.OccupiedBase(1),
		size: tt.MeanFootprint(),
	}, nil
}

func TestEvalShapeErrors(t *testing.T) {
	m := diagMatrix(32)
	s, _, err := Collect(m, []int{8, 8}, nil, &Options{MicroDiv: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvalShape([]int{3, 8}); err == nil {
		t.Fatal("non-multiple shape accepted")
	}
	if _, err := s.EvalShape([]int{8}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := s.EvalShape([]int{0, 8}); err == nil {
		t.Fatal("zero dim accepted")
	}
}

func TestSnapToMicro(t *testing.T) {
	m := diagMatrix(64)
	s, _, err := Collect(m, []int{16, 16}, nil, &Options{MicroDiv: 4}) // micro = 4
	if err != nil {
		t.Fatal(err)
	}
	got := s.SnapToMicro([]int{5, 100})
	if got[0] != 4 {
		t.Fatalf("snap 5 -> %d, want 4", got[0])
	}
	if got[1] != 64 {
		t.Fatalf("snap 100 -> %d, want clamp to 64", got[1])
	}
	if got := s.SnapToMicro([]int{1, 1}); got[0] != 4 || got[1] != 4 {
		t.Fatalf("snap 1 -> %v, want micro minimum", got)
	}
}

func TestQuickEvalShapeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := gen.UniformRandom(r, 128, 128, 400)
		s, _, err := Collect(m, []int{16, 16}, nil, &Options{MicroDiv: 4})
		if err != nil {
			return false
		}
		shapes := [][]int{{16, 16}, {32, 8}, {8, 32}, {4, 64}, {64, 4}}
		sh := shapes[r.Intn(len(shapes))]
		ev, err := s.EvalShape(sh)
		if err != nil {
			return false
		}
		// Invariants: probabilities in [0,1]; tiles bounded by domain and
		// by nnz; marginals consistent with occupied counts.
		if ev.PTile < 0 || ev.PTile > 1 {
			return false
		}
		if ev.NumTiles > m.NNZ() || ev.NumTiles < 1 {
			return false
		}
		for a := range ev.Marginal {
			if ev.Marginal[a] < 0 || ev.Marginal[a] > 1 {
				return false
			}
			if ev.Occupied[a] > ev.OuterDims[a] {
				return false
			}
		}
		return ev.MaxTile >= int(ev.SizeTile)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCollect3DTensor(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := gen.RandomTensor3(r, 64, 64, 64, 2000, [3]float64{0, 0, 0.5})
	s, tt, err := Collect(m, []int{8, 8, 8}, []int{0, 1, 2}, &Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tt.NumTiles() != s.NumTiles {
		t.Fatal("tile count mismatch")
	}
	if len(s.PrTileIdx) != 3 || len(s.ProbIndex) != 3 {
		t.Fatalf("level stats arity wrong: %v %v", s.PrTileIdx, s.ProbIndex)
	}
	for l := 0; l < 3; l++ {
		if s.PrTileIdx[l] <= 0 || s.PrTileIdx[l] > 1 {
			t.Fatalf("PrTileIdx[%d] = %v", l, s.PrTileIdx[l])
		}
		if s.ProbIndex[l] <= 0 || s.ProbIndex[l] > 1 {
			t.Fatalf("ProbIndex[%d] = %v", l, s.ProbIndex[l])
		}
	}
	if _, err := s.EvalShape([]int{16, 8, 4}); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsNonPermutationOrder: a level order that repeats an axis
// keys every tile by that axis twice and never by the missing one, so
// the tiler used to merge distinct tiles and drop entries without an
// error. Every tiling and collection entry point must refuse it.
func TestRejectsNonPermutationOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := gen.PowerLawGraph(r, 100, 800, 1.5)
	tile := []int{8, 8}
	entry := map[string]func(order []int) error{
		"tiling.New": func(order []int) error {
			_, err := tiling.New(m, tile, order)
			return err
		},
		"tiling.Summarize": func(order []int) error {
			_, err := tiling.Summarize(m, tile, order, 2)
			return err
		},
		"stats.Collect": func(order []int) error {
			_, _, err := Collect(m, tile, order, nil)
			return err
		},
		"stats.CollectPartial": func(order []int) error {
			_, err := CollectPartial(m, tile, order, nil)
			return err
		},
	}
	for _, order := range [][]int{{0, 0}, {1, 1}, {0, 2}, {-1, 0}} {
		for name, run := range entry {
			if err := run(order); err == nil {
				t.Errorf("%s accepted level order %v", name, order)
			}
		}
	}
	for name, run := range entry {
		if err := run([]int{1, 0}); err != nil {
			t.Errorf("%s rejected the permutation [1 0]: %v", name, err)
		}
	}
}

// TestCollectFromTiledRejectsMismatchedTensor: CollectFromTiled reads
// the tile tables off tt and the entry statistics off t, so a tiling of
// another tensor must be refused rather than mixed into one bundle.
func TestCollectFromTiledRejectsMismatchedTensor(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := gen.PowerLawGraph(r, 64, 500, 1.5)
	m.Dedup()
	tt, err := tiling.New(m, []int{8, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fewer := tensor.New(m.Dims...)
	fewer.Append([]int{0, 0}, 1)
	wider := tensor.New(m.Dims[0], 2*m.Dims[1])
	for p := 0; p < m.NNZ(); p++ {
		wider.Append(m.At(p), m.Vals[p])
	}
	for name, x := range map[string]*tensor.COO{"fewer entries": fewer, "other dims": wider} {
		if _, err := CollectFromTiled(x, tt, nil); err == nil {
			t.Errorf("%s: CollectFromTiled accepted a tiling of another tensor", name)
		}
	}
	if _, err := CollectFromTiled(m, tt, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevelOfAxisAndSketches(t *testing.T) {
	m := diagMatrix(32)
	s, _, err := Collect(m, []int{8, 8}, []int{1, 0}, &Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.LevelOfAxis(1) != 0 || s.LevelOfAxis(0) != 1 {
		t.Fatalf("level mapping wrong: %v", s.Order)
	}
	if s.LevelOfAxis(5) != -1 {
		t.Fatal("unknown axis should map to -1")
	}
	// Identical tensors sketch identically; a transpose of a diagonal is
	// itself, so Jaccard must be 1.
	s2, _, err := Collect(m.Transpose(), []int{8, 8}, nil, &Options{MicroDiv: 2})
	if err != nil {
		t.Fatal(err)
	}
	if j := SketchJaccard(s.PairSketch[0], s2.PairSketch[1]); j < 0.99 {
		t.Fatalf("diagonal self-similarity = %v, want ~1", j)
	}
	// Element counts: every row and column of the diagonal holds one.
	for a := 0; a < 2; a++ {
		for _, c := range s.ElemCounts[a] {
			if c != 1 {
				t.Fatalf("diag elem counts wrong: %v", s.ElemCounts[a][:8])
			}
		}
	}
}

func TestSketchJaccardProperties(t *testing.T) {
	b1 := newBottomK(sketchSize)
	b2 := newBottomK(sketchSize)
	b3 := newBottomK(sketchSize)
	for i := 0; i < 5000; i++ {
		h := hash64(uint64(i))
		b1.add(h)
		if i%2 == 0 {
			b2.add(h)
		}
		b3.add(hash64(uint64(i + 1000000)))
	}
	// Identical sets -> 1.
	if j := SketchJaccard(b1.values(), b1.values()); j != 1 {
		t.Fatalf("self Jaccard = %v", j)
	}
	// Half-subset: J = |A∩B|/|A∪B| = 2500/5000 = 0.5 (±sketch noise).
	if j := SketchJaccard(b1.values(), b2.values()); j < 0.35 || j > 0.65 {
		t.Fatalf("subset Jaccard = %v, want ~0.5", j)
	}
	// Disjoint sets -> ~0.
	if j := SketchJaccard(b1.values(), b3.values()); j > 0.05 {
		t.Fatalf("disjoint Jaccard = %v, want ~0", j)
	}
	// Empty sketch -> 0.
	if j := SketchJaccard(nil, b1.values()); j != 0 {
		t.Fatalf("empty Jaccard = %v", j)
	}
}
