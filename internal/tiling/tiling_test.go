package tiling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"d2t2/internal/gen"
	"d2t2/internal/tensor"
)

// fig3Matrix is an 8x8 matrix shaped like the paper's Figure 3 example:
// data concentrated so that a 2x2 conservative tiling leaves many tiles
// empty but a tall-skinny tiling skips a whole outer column.
func fig3Matrix() *tensor.COO {
	m := tensor.New(8, 8)
	for _, e := range [][2]int{{0, 0}, {1, 1}, {2, 0}, {3, 1}, {4, 6}, {5, 7}, {6, 6}, {7, 7}} {
		m.Append([]int{e[0], e[1]}, 1)
	}
	return m
}

func TestKeyRoundTrip(t *testing.T) {
	cases := [][]int{{0}, {1, 2}, {5, 0, 7}, {1000, 2000, 3000}}
	for _, c := range cases {
		got := Unkey(Key(c), len(c))
		for a := range c {
			if got[a] != c[a] {
				t.Fatalf("Unkey(Key(%v)) = %v", c, got)
			}
		}
	}
}

func TestTileBasic(t *testing.T) {
	m := fig3Matrix()
	tt, err := New(m, []int{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tt.OuterDims[0] != 4 || tt.OuterDims[1] != 4 {
		t.Fatalf("outer dims = %v", tt.OuterDims)
	}
	// Entries live in tiles (0,0),(1,0),(2,3),(3,3).
	if tt.NumTiles() != 4 {
		t.Fatalf("num tiles = %d, want 4", tt.NumTiles())
	}
	for _, oc := range [][]int{{0, 0}, {1, 0}, {2, 3}, {3, 3}} {
		tile := tt.Lookup(oc...)
		if tile == nil {
			t.Fatalf("missing tile %v", oc)
		}
		if tile.NNZ() != 2 {
			t.Fatalf("tile %v nnz = %d, want 2", oc, tile.NNZ())
		}
	}
	if tt.Lookup(0, 3) != nil {
		t.Fatal("empty tile present")
	}
}

func TestTileRoundTrip(t *testing.T) {
	m := fig3Matrix()
	tt, err := New(m, []int{3, 5}, nil) // non-divisible tile dims
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(m, tt.ToCOO()) {
		t.Fatal("tile round trip lost data")
	}
}

func TestTileFootprints(t *testing.T) {
	m := fig3Matrix()
	tt, _ := New(m, []int{2, 2}, nil)
	total, max := 0, 0
	for _, tile := range tt.Tiles {
		if tile.Footprint != tile.CSF.FootprintWords() {
			t.Fatal("tile footprint inconsistent with CSF")
		}
		total += tile.Footprint
		if tile.Footprint > max {
			max = tile.Footprint
		}
	}
	if total != tt.TotalFootprint || max != tt.MaxFootprint {
		t.Fatalf("aggregate footprints wrong: %d/%d vs %d/%d",
			total, max, tt.TotalFootprint, tt.MaxFootprint)
	}
	if tt.MeanFootprint() != float64(total)/4 {
		t.Fatal("mean footprint wrong")
	}
}

func TestTileOrderPermuted(t *testing.T) {
	m := fig3Matrix()
	tt, err := New(m, []int{2, 2}, []int{1, 0}) // column-major levels
	if err != nil {
		t.Fatal(err)
	}
	// Outer CSF root level must be the column-tile axis: 2 distinct k'.
	if got := tt.OuterCSF.FiberCount(0); got != 2 {
		t.Fatalf("outer CSF root fibers = %d, want 2 (k' in {0,3})", got)
	}
	if !tensor.Equal(m, tt.ToCOO()) {
		t.Fatal("permuted tiling round trip lost data")
	}
}

func TestTileErrors(t *testing.T) {
	m := fig3Matrix()
	if _, err := New(m, []int{2}, nil); err == nil {
		t.Fatal("wrong tile-dim arity accepted")
	}
	if _, err := New(m, []int{0, 2}, nil); err == nil {
		t.Fatal("zero tile dim accepted")
	}
	if _, err := New(m, []int{2, 2}, []int{0}); err == nil {
		t.Fatal("wrong order arity accepted")
	}
}

// TestTileRejectsOrderAboveKeyLimit: a fourth 21-bit field would wrap
// out of the uint64 tile key, so tiles 0, 2 and 4 on axis 0 of an
// 8×2×2×2 tensor would collapse into one. Every entry point refuses the
// order instead of returning that merged tile.
func TestTileRejectsOrderAboveKeyLimit(t *testing.T) {
	m := tensor.New(8, 2, 2, 2)
	for _, i := range []int{0, 2, 4} {
		m.Append([]int{i, 0, 0, 0}, 1)
	}
	dims := []int{1, 2, 2, 2}
	if _, err := New(m, dims, nil); err == nil {
		t.Fatal("New accepted an order-4 tensor")
	}
	if _, err := Summarize(m, dims, nil, 1); err == nil {
		t.Fatal("Summarize accepted an order-4 tensor")
	}
	if _, err := FromTiles(m.Dims, dims, []int{0, 1, 2, 3}, nil); err == nil {
		t.Fatal("FromTiles accepted an order-4 tensor")
	}
	if MaxOrder != 3 {
		t.Fatalf("MaxOrder = %d, want 3 for %d-bit key fields", MaxOrder, keyShift)
	}
	// The limit itself still tiles: distinct axis-0 tiles stay distinct.
	m3 := tensor.New(8, 2, 2)
	for _, i := range []int{0, 2, 4} {
		m3.Append([]int{i, 0, 0}, 1)
	}
	tt, err := New(m3, []int{1, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Tiles) != 3 {
		t.Fatalf("order-3 tiling has %d tiles, want 3", len(tt.Tiles))
	}
}

func TestOuterCSFValuesAreFootprints(t *testing.T) {
	m := fig3Matrix()
	tt, _ := New(m, []int{2, 2}, nil)
	sum := 0.0
	for _, v := range tt.OuterCSF.Vals {
		sum += v
	}
	if int(sum) != tt.TotalFootprint {
		t.Fatalf("outer CSF values sum %v != total footprint %d", sum, tt.TotalFootprint)
	}
}

func TestDenseFootprintWords(t *testing.T) {
	// 2x2 dense tile: vals 4, level0: crd 2 + seg 2(=1+1... prod=1: 1*2 crd, 2 seg),
	// level1: crd 4, seg 3. Total = 4 + (2+2) + (4+3) = 15.
	if got := DenseFootprintWords([]int{2, 2}); got != 15 {
		t.Fatalf("dense footprint = %d, want 15", got)
	}
	// Scaling: order-2 footprint dominated by 2*T^2.
	f := DenseFootprintWords([]int{128, 128})
	if f < 2*128*128 || f > 2*128*128+300 {
		t.Fatalf("128x128 dense footprint = %d", f)
	}
}

func TestConservativeSquare(t *testing.T) {
	// Buffer sized exactly for a 128x128 dense tile must yield 128.
	buf := DenseFootprintWords([]int{128, 128})
	if got := ConservativeSquare(buf, 2); got != 128 {
		t.Fatalf("conservative tile = %d, want 128", got)
	}
	if got := ConservativeSquare(buf-1, 2); got != 64 {
		t.Fatalf("conservative tile = %d, want 64", got)
	}
	// Order-3: T^3 values; a 16^3 buffer gives 16.
	buf3 := DenseFootprintWords([]int{16, 16, 16})
	if got := ConservativeSquare(buf3, 3); got != 16 {
		t.Fatalf("conservative 3-d tile = %d, want 16", got)
	}
}

// TestConservativeSquareHugeBuffer: near MaxInt the dense footprint of
// the next doubling overflows int. The search must stop at the largest
// side whose footprint still fits instead of wrapping and looping
// forever, so it runs under a watchdog.
func TestConservativeSquareHugeBuffer(t *testing.T) {
	for _, tc := range []struct{ buf, order, want int }{
		{math.MaxInt, 2, 1 << 30}, // 2·2^62 + … overflows at side 2^31
		{math.MaxInt, 3, 1 << 20},
		{math.MaxInt, 4, 1 << 15},
		{DenseFootprintWords([]int{1 << 30, 1 << 30}), 2, 1 << 30},
		{DenseFootprintWords([]int{1 << 30, 1 << 30}) - 1, 2, 1 << 29},
	} {
		done := make(chan int, 1)
		go func() { done <- ConservativeSquare(tc.buf, tc.order) }()
		select {
		case got := <-done:
			if got != tc.want {
				t.Errorf("ConservativeSquare(%d, %d) = %d, want %d", tc.buf, tc.order, got, tc.want)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("ConservativeSquare(%d, %d) did not return", tc.buf, tc.order)
		}
	}
}

func TestPackTiles(t *testing.T) {
	m := fig3Matrix()
	base, _ := New(m, []int{2, 2}, nil)
	packed, err := PackTiles(base, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if packed.TileDims[0] != 4 || packed.TileDims[1] != 2 {
		t.Fatalf("packed tile dims = %v", packed.TileDims)
	}
	// Tiles (0,0)+(1,0) merge; (2,3)+(3,3) merge.
	if packed.NumTiles() != 2 {
		t.Fatalf("packed tiles = %d, want 2", packed.NumTiles())
	}
	// Footprint = member footprints + 3 directory words per member.
	want := base.TotalFootprint + 4*3
	if packed.TotalFootprint != want {
		t.Fatalf("packed footprint = %d, want %d", packed.TotalFootprint, want)
	}
}

func TestPackTilesErrors(t *testing.T) {
	m := fig3Matrix()
	base, _ := New(m, []int{2, 2}, nil)
	if _, err := PackTiles(base, []int{2}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := PackTiles(base, []int{0, 1}); err == nil {
		t.Fatal("zero factor accepted")
	}
}

func TestQuickTileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := gen.UniformRandom(r, 40+r.Intn(40), 40+r.Intn(40), 200)
		td := []int{1 + r.Intn(16), 1 + r.Intn(16)}
		orders := [][]int{{0, 1}, {1, 0}}
		tt, err := New(m, td, orders[r.Intn(2)])
		if err != nil {
			return false
		}
		nnz := 0
		for _, tile := range tt.Tiles {
			nnz += tile.NNZ()
		}
		return nnz == m.NNZ() && tensor.Equal(m, tt.ToCOO())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTile3DRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := gen.RandomTensor3(r, 20, 25, 30, 300, [3]float64{0, 0.5, 0})
		td := []int{1 + r.Intn(8), 1 + r.Intn(8), 1 + r.Intn(8)}
		tt, err := New(m, td, []int{2, 0, 1})
		if err != nil {
			return false
		}
		return tensor.Equal(m, tt.ToCOO())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPackPreservesNNZAndFootprintLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := gen.PowerLawGraph(r, 128, 600, 1.5)
		base, err := New(m, []int{8, 8}, nil)
		if err != nil {
			return false
		}
		packed, err := PackTiles(base, []int{1 + r.Intn(4), 1 + r.Intn(4)})
		if err != nil {
			return false
		}
		nnz := 0
		for _, tile := range packed.Tiles {
			_ = tile
		}
		_ = nnz
		// Packing can only add directory overhead.
		return packed.TotalFootprint >= base.TotalFootprint &&
			packed.NumTiles() <= base.NumTiles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateInvariants(t *testing.T) {
	m := fig3Matrix()
	tt, _ := New(m, []int{2, 2}, nil)
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Packed tensors validate too.
	packed, _ := PackTiles(tt, []int{2, 2})
	if err := packed.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corruptions are caught.
	tt.TotalFootprint++
	if err := tt.Validate(); err == nil {
		t.Fatal("footprint corruption accepted")
	}
	tt.TotalFootprint--
	tt.NNZ++
	if err := tt.Validate(); err == nil {
		t.Fatal("nnz corruption accepted")
	}
}
