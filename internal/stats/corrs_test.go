package stats

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"d2t2/internal/radix"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// finalizePairwise is the reference oracle for corrPlan.finalize: one
// sorted-merge intersection per (sampled position k, shift s) pair,
// accumulated in float64. It is the kernel finalize replaced and the
// definition the inverted count must reproduce bit for bit.
func finalizePairwise(pl *corrPlan, off []int32, flat []uint64) []float64 {
	rest := func(k int) []uint64 { return flat[off[k]:off[k+1]] }
	overlap := make([]float64, pl.maxShift+1)
	base := 0.0
	for k := 0; k < pl.dim; k += pl.stride {
		lk := rest(k)
		if len(lk) == 0 {
			continue
		}
		base += float64(len(lk))
		for s := 0; s <= pl.maxShift && k+s < pl.dim; s++ {
			ls := rest(k + s)
			if len(ls) == 0 {
				continue
			}
			overlap[s] += float64(sortedIntersection(lk, ls))
		}
	}
	out := make([]float64, pl.maxShift+1)
	if base == 0 {
		out[0] = 1
		return out
	}
	for s := range out {
		out[s] = overlap[s] / base
	}
	// Normalize so shift 0 is exactly 1 (it equals base by construction).
	if out[0] > 0 && out[0] != 1 {
		for s := range out {
			out[s] /= out[0]
		}
	}
	out[0] = 1
	return out
}

// sortedIntersection returns |a ∩ b| for sorted multisets: each key
// counts with the smaller of its two multiplicities.
func sortedIntersection(a, b []uint64) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// randomAccum builds a canonical corr accumulator over dim positions:
// each position holds up to perPos rest keys drawn from [0, restRange),
// sorted, with duplicates when dupProb > 0 and empty positions when
// emptyProb > 0.
func randomAccum(r *rand.Rand, dim, perPos int, restRange uint64, dupProb, emptyProb float64) ([]int32, []uint64) {
	off := make([]int32, dim+1)
	var flat []uint64
	for k := 0; k < dim; k++ {
		if r.Float64() >= emptyProb {
			start := len(flat)
			for n := r.Intn(perPos + 1); n > 0; n-- {
				if len(flat) > start && r.Float64() < dupProb {
					flat = append(flat, flat[start+r.Intn(len(flat)-start)])
				} else {
					flat = append(flat, uint64(r.Int63n(int64(restRange))))
				}
			}
			slices.Sort(flat[start:])
		}
		off[k+1] = int32(len(flat))
	}
	return off, flat
}

// sameBits reports whether two curves are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// finalizeBoth runs both of finalize's groupings on one accumulator:
// the counting transpose over the smallest rest grid that holds its
// keys, when that grid is dense in them (dense reports whether it was),
// and the sorted grouping, forced by a grid too large for a table.
func finalizeBoth(pl *corrPlan, off []int32, flat []uint64) (transposed, sorted []float64, dense bool) {
	cells := uint64(0)
	for _, k := range flat {
		cells = max(cells, k+1)
	}
	if radix.Dense(cells, len(flat)) {
		transposed, dense = pl.finalize(off, flat, cells), true
	}
	return transposed, pl.finalize(off, flat, math.MaxUint64), dense
}

// checkFinalize compares both of finalize's groupings with the pairwise
// oracle, bit for bit, and reports whether the transpose ran.
func checkFinalize(t *testing.T, pl *corrPlan, off []int32, flat []uint64) bool {
	t.Helper()
	want := finalizePairwise(pl, off, flat)
	transposed, sorted, dense := finalizeBoth(pl, off, flat)
	if dense && !sameBits(transposed, want) {
		t.Fatalf("dim %d maxShift %d stride %d: transposed finalize %v, pairwise oracle %v", pl.dim, pl.maxShift, pl.stride, transposed, want)
	}
	if !sameBits(sorted, want) {
		t.Fatalf("dim %d maxShift %d stride %d: sorted finalize %v, pairwise oracle %v", pl.dim, pl.maxShift, pl.stride, sorted, want)
	}
	return dense
}

// TestCorrFinalizeMatchesPairwise checks the inverted-index count against
// the pairwise-merge oracle, bit for bit, across the accumulator shapes
// the collector and Merge can produce, through both groupings.
func TestCorrFinalizeMatchesPairwise(t *testing.T) {
	cases := []struct {
		name                    string
		dim, maxShift, target   int
		perPos                  int
		restRange               uint64
		dupProb, emptyProb      float64
		wantStride, wantMaxShft int
	}{
		{name: "dense-sets", dim: 64, maxShift: 16, target: 512, perPos: 12, restRange: 40, wantStride: 1, wantMaxShft: 16},
		{name: "multisets", dim: 64, maxShift: 16, target: 512, perPos: 12, restRange: 20, dupProb: 0.4, wantStride: 1, wantMaxShft: 16},
		{name: "strided-sources", dim: 1000, maxShift: 24, target: 64, perPos: 6, restRange: 50, dupProb: 0.2, wantStride: 15, wantMaxShft: 24},
		{name: "empty-positions", dim: 200, maxShift: 32, target: 512, perPos: 8, restRange: 30, emptyProb: 0.6, wantStride: 1, wantMaxShft: 32},
		{name: "all-empty", dim: 50, maxShift: 8, target: 512, perPos: 4, restRange: 10, emptyProb: 1, wantStride: 1, wantMaxShft: 8},
		{name: "maxshift-clamped", dim: 20, maxShift: 100, target: 512, perPos: 10, restRange: 15, dupProb: 0.3, wantStride: 1, wantMaxShft: 19},
		{name: "dim-1", dim: 1, maxShift: 8, target: 512, perPos: 10, restRange: 5, dupProb: 0.5, wantStride: 1, wantMaxShft: 0},
		{name: "wide-rest-range", dim: 300, maxShift: 20, target: 100, perPos: 5, restRange: 1 << 50, wantStride: 3, wantMaxShft: 20},
	}
	transposed := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := newCorrPlan(tc.dim, tc.maxShift, tc.target)
			if pl.stride != tc.wantStride || pl.maxShift != tc.wantMaxShft {
				t.Fatalf("plan stride %d maxShift %d, want %d and %d", pl.stride, pl.maxShift, tc.wantStride, tc.wantMaxShft)
			}
			for q := 0; q < tc.dim; q++ {
				want := false
				for k := 0; k < tc.dim; k += pl.stride {
					want = want || (k <= q && q <= k+pl.maxShift)
				}
				if pl.needed[q] != want {
					t.Fatalf("needed[%d] = %v, want %v", q, pl.needed[q], want)
				}
			}
			r := rand.New(rand.NewSource(int64(len(tc.name))))
			for trial := 0; trial < 20; trial++ {
				off, flat := randomAccum(r, tc.dim, tc.perPos, tc.restRange, tc.dupProb, tc.emptyProb)
				if checkFinalize(t, pl, off, flat) {
					transposed++
				}
			}
		})
	}
	// The narrow rest ranges are dense in their keys, the 2^50 one is not.
	if transposed == 0 || transposed == 20*len(cases) {
		t.Fatalf("the transpose ran on %d of %d accumulators: both groupings must be covered", transposed, 20*len(cases))
	}
}

// TestCorrsAxisMatchesPairwise runs the same comparison on gathered
// accumulators of real tensors, including an order-3 tensor whose rest
// keys span two axes.
func TestCorrsAxisMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := tensor.New(300, 200)
	for p := 0; p < 3000; p++ {
		i := r.Intn(300)
		m.Append([]int{i, (i + r.Intn(9)) % 200}, 1)
	}
	t3 := tensor.New(40, 30, 20)
	for p := 0; p < 2000; p++ {
		t3.Append([]int{r.Intn(40), r.Intn(30), r.Intn(20)}, 1)
	}
	for _, x := range []*tensor.COO{m, t3} {
		for ax := range x.Dims {
			rest, err := corrRestGrid(x.Dims, ax)
			if err != nil {
				t.Fatal(err)
			}
			pl := newCorrPlan(x.Dims[ax], 32, 64)
			off, flat := pl.gather(x, ax, rest)
			if got, want := pl.finalize(off, flat, rest.Size()), finalizePairwise(pl, off, flat); !sameBits(got, want) {
				t.Fatalf("dims %v axis %d: finalize %v, pairwise oracle %v", x.Dims, ax, got, want)
			}
			checkFinalize(t, pl, off, flat)
		}
	}
}

// TestCorrKeySpace pins the packed-key bound: collection fails loudly
// when the product of dims reaches 2^64 instead of letting distinct
// coordinates collide, and still runs right below it.
func TestCorrKeySpace(t *testing.T) {
	// collect runs both collection entry points on a small tensor with
	// the given dims and returns their errors.
	collect := func(dims ...int) [2]error {
		x := tensor.New(dims...)
		for p := 0; p < 50; p++ {
			crd := make([]int, len(dims))
			for a := range crd {
				crd[a] = (p * 7919 * (a + 1)) % dims[a]
			}
			x.Append(crd, 1)
		}
		tile := make([]int, len(dims))
		for a := range tile {
			tile[a] = dims[a] / 4
		}
		tt, err := tiling.NewCtx(context.Background(), x, tile, nil, 0)
		if err != nil {
			t.Fatalf("tiling dims %v: %v", dims, err)
		}
		_, errTiled := CollectFromTiledCtx(context.Background(), x, tt, nil)
		_, errPartial := CollectPartialCtx(context.Background(), x, tile, nil, nil)
		return [2]error{errTiled, errPartial}
	}
	// Tiling caps the order at 3, so the overflowing case spreads the
	// 64 bits over three axes: 2^22 · 2^21 · 2^21 = 2^64.
	for _, err := range collect(1<<22, 1<<21, 1<<21) {
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("order-3 tensor with dims product 2^64 collected: %v", err)
		}
	}
	for _, err := range collect(1<<21, 1<<21, 1<<21) {
		if err != nil {
			t.Fatalf("order-3 tensor with dims 2^21: %v", err)
		}
	}
}

// FuzzCorrFinalize decodes an accumulator from the fuzz bytes — the
// first byte picks dim (low six bits) and a rest-key scale (high two
// bits, so packed keys span up to 56 bits and the radix sort runs up to
// six passes), the second maxShift, the third the sample target; each
// later byte lands at position b%dim with rest key (b/dim)·scale — and
// compares both groupings of the inverted count with the pairwise
// oracle. The seeds at scale 0 run the counting transpose (their keys
// sit on a small grid); the scaled seed's keys do not, so only the
// sorted grouping runs on it.
func FuzzCorrFinalize(f *testing.F) {
	f.Add([]byte{8, 3, 4, 0, 1, 9, 17, 17, 25, 2, 10})
	f.Add([]byte{1, 0, 0, 5, 5, 5})
	f.Add([]byte{40, 90, 7, 200, 3, 45, 45, 45, 80, 81, 120, 160, 255})
	f.Add([]byte{0xc0 | 12, 30, 5, 1, 13, 25, 25, 37, 200, 212, 90})
	f.Add([]byte{3, 2, 0, 0, 3, 3, 6, 6, 6, 9, 12, 15, 18, 4, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		dim, maxShift, target := int(b[0]%64)+1, int(b[1]), int(b[2]%32)
		scale := uint(14 * (b[0] >> 6))
		byPos := make([][]uint64, dim)
		for _, x := range b[3:] {
			byPos[int(x)%dim] = append(byPos[int(x)%dim], uint64(x)/uint64(dim)<<scale)
		}
		off := make([]int32, dim+1)
		var flat []uint64
		for k, keys := range byPos {
			slices.Sort(keys)
			flat = append(flat, keys...)
			off[k+1] = int32(len(flat))
		}
		checkFinalize(t, newCorrPlan(dim, maxShift, target), off, flat)
	})
}
