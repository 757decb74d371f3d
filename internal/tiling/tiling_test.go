package tiling

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"d2t2/internal/gen"
	"d2t2/internal/radix"
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

// TestKeyRoundTrip: every tile's key decodes through the codec of the
// outer grid back to its outer coordinates, Lookup finds it, and coordinates
// outside the grid miss instead of aliasing an in-grid tile.
func TestKeyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := gen.RandomTensor3(r, 30, 20, 50, 400, [3]float64{0.5, 0, 1})
	tt, err := NewCtx(context.Background(), m, []int{4, 3, 7}, []int{2, 0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := radix.NewCodec(tt.OuterDims)
	if err != nil {
		t.Fatal(err)
	}
	dec := make([]int, 3)
	for k, tile := range tt.Tiles {
		grid.Decode(dec, k)
		for a := range dec {
			if dec[a] != tile.Outer[a] {
				t.Fatalf("key %d decodes to %v, tile outer %v", k, dec, tile.Outer)
			}
		}
		if tt.Lookup(tile.Outer...) != tile {
			t.Fatalf("Lookup(%v) misses its tile", tile.Outer)
		}
	}
	// (0, OuterDims[1], 0) would be key (1, 0, 0) without the bound check.
	if tile := tt.Lookup(0, tt.OuterDims[1], 0); tile != nil {
		t.Fatalf("out-of-grid Lookup returned tile %v", tile.Outer)
	}
	if tile := tt.Lookup(-1, 0, 0); tile != nil {
		t.Fatalf("negative Lookup returned tile %v", tile.Outer)
	}
	if tile := tt.Lookup(0, 0); tile != nil {
		t.Fatalf("short Lookup returned tile %v", tile.Outer)
	}
}

func TestTileBasic(t *testing.T) {
	m := fig3Matrix()
	tt, err := NewCtx(context.Background(), m, []int{2, 2}, nil, 0)
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
	tt, err := NewCtx(context.Background(), m, []int{3, 5}, nil, 0) // non-divisible tile dims
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(m, tt.ToCOO()) {
		t.Fatal("tile round trip lost data")
	}
}

func TestTileFootprints(t *testing.T) {
	m := fig3Matrix()
	tt, _ := NewCtx(context.Background(), m, []int{2, 2}, nil, 0)
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
	tt, err := NewCtx(context.Background(), m, []int{2, 2}, []int{1, 0}, 0) // column-major levels
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
	if _, err := NewCtx(context.Background(), m, []int{2}, nil, 0); err == nil {
		t.Fatal("wrong tile-dim arity accepted")
	}
	if _, err := NewCtx(context.Background(), m, []int{0, 2}, nil, 0); err == nil {
		t.Fatal("zero tile dim accepted")
	}
	if _, err := NewCtx(context.Background(), m, []int{2, 2}, []int{0}, 0); err == nil {
		t.Fatal("wrong order arity accepted")
	}
}

// TestTileRejectsOrderAboveKeyLimit: the one limit on tiling is that the
// outer tile grid has 64-bit keys. An order-4 tensor below it tiles,
// summarizes and reassembles with its three axis-0 tiles distinct; a
// grid of exactly 2^64 tiles is refused by every entry point, and one
// tile fewer on the last axis is accepted.
func TestTileRejectsOrderAboveKeyLimit(t *testing.T) {
	m := tensor.New(8, 2, 2, 2)
	for _, i := range []int{0, 2, 4} {
		m.Append([]int{i, 0, 0, 0}, 1)
	}
	dims := []int{1, 2, 2, 2}
	tt, err := NewCtx(context.Background(), m, dims, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Tiles) != 3 {
		t.Fatalf("order-4 tiling has %d tiles, want 3", len(tt.Tiles))
	}
	for _, i := range []int{0, 2, 4} {
		if tile := tt.Lookup(i, 0, 0, 0); tile == nil || tile.NNZ() != 1 {
			t.Fatalf("axis-0 tile %d missing or merged", i)
		}
	}
	sum, err := SummarizeCtx(context.Background(), m, dims, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Keys) != 3 {
		t.Fatalf("order-4 summary has %d tiles, want 3", len(sum.Keys))
	}
	var tiles []*Tile
	for _, k := range tt.SortedKeys() {
		tile := tt.Tiles[k]
		tiles = append(tiles, &Tile{Outer: append([]int(nil), tile.Outer...), CSF: tile.CSF})
	}
	back, err := FromTiles(m.Dims, dims, []int{0, 1, 2, 3}, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tiles) != 3 || !tensor.Equal(back.ToCOO(), m) {
		t.Fatalf("order-4 FromTiles: %d tiles, reassembled tensor differs", len(back.Tiles))
	}

	// 2^16 unit tiles on each of four axes: a grid of exactly 2^64.
	big := tensor.New(1<<16, 1<<16, 1<<16, 1<<16)
	big.Append([]int{1, 2, 3, 4}, 1)
	unit := []int{1, 1, 1, 1}
	if _, err := NewCtx(context.Background(), big, unit, nil, 0); err == nil || !strings.Contains(err.Error(), "2^64") {
		t.Fatalf("New on a 2^64-tile grid: %v", err)
	}
	if _, err := SummarizeCtx(context.Background(), big, unit, nil, 1); err == nil || !strings.Contains(err.Error(), "2^64") {
		t.Fatalf("Summarize on a 2^64-tile grid: %v", err)
	}
	if _, err := FromTiles(big.Dims, unit, []int{0, 1, 2, 3}, nil); err == nil || !strings.Contains(err.Error(), "2^64") {
		t.Fatalf("FromTiles on a 2^64-tile grid: %v", err)
	}
	below := tensor.New(1<<16, 1<<16, 1<<16, 1<<16-1)
	below.Append([]int{1, 2, 3, 4}, 1)
	if _, err := NewCtx(context.Background(), below, unit, nil, 0); err != nil {
		t.Fatalf("New on a 2^64-2^48-tile grid: %v", err)
	}
}

// TestTileRejectsAxisPastTileCap: every entry point refuses a grid with
// more than MaxAxisTiles tiles along one axis, naming the cap, and
// accepts one at it.
func TestTileRejectsAxisPastTileCap(t *testing.T) {
	unit := []int{1, 1}
	at := tensor.New(MaxAxisTiles, 2)
	at.Append([]int{MaxAxisTiles - 1, 1}, 1)
	if _, err := NewCtx(context.Background(), at, unit, nil, 0); err != nil {
		t.Fatalf("New at the axis cap: %v", err)
	}
	past := tensor.New(MaxAxisTiles+1, 2)
	past.Append([]int{MaxAxisTiles, 1}, 1)
	if _, err := NewCtx(context.Background(), past, unit, nil, 0); err == nil || !strings.Contains(err.Error(), "axis cap") {
		t.Fatalf("New past the axis cap: %v", err)
	}
	if _, err := SummarizeCtx(context.Background(), past, unit, nil, 1); err == nil || !strings.Contains(err.Error(), "axis cap") {
		t.Fatalf("Summarize past the axis cap: %v", err)
	}
	if _, err := FromTiles(past.Dims, unit, []int{0, 1}, nil); err == nil || !strings.Contains(err.Error(), "axis cap") {
		t.Fatalf("FromTiles past the axis cap: %v", err)
	}
}

func TestOuterCSFValuesAreFootprints(t *testing.T) {
	m := fig3Matrix()
	tt, _ := NewCtx(context.Background(), m, []int{2, 2}, nil, 0)
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
	base, _ := NewCtx(context.Background(), m, []int{2, 2}, nil, 0)
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
	base, _ := NewCtx(context.Background(), m, []int{2, 2}, nil, 0)
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
		tt, err := NewCtx(context.Background(), m, td, orders[r.Intn(2)], 0)
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
		tt, err := NewCtx(context.Background(), m, td, []int{2, 0, 1}, 0)
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
		base, err := NewCtx(context.Background(), m, []int{8, 8}, nil, 0)
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
	tt, _ := NewCtx(context.Background(), m, []int{2, 2}, nil, 0)
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
