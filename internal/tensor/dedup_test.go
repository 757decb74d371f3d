package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// comparisonDedup is Dedup's comparison-sort path on its own: the
// oracle the radix path is checked against.
func comparisonDedup(t *COO) {
	if t.NNZ() == 0 {
		return
	}
	t.Sort(nil)
	w := 0
	for r := 1; r < t.NNZ(); r++ {
		if t.sameCoord(w, r) {
			t.Vals[w] += t.Vals[r]
			continue
		}
		w++
		for a := range t.Crds {
			t.Crds[a][w] = t.Crds[a][r]
		}
		t.Vals[w] = t.Vals[r]
	}
	t.truncate(w + 1)
}

// TestDedupRadixMatchesComparisonSort runs Dedup on unsorted tensors of
// order 1–4 with duplicates and checks it against the comparison sort:
// the same coordinates, and the same values wherever a coordinate held
// at most two entries (float addition of two terms is commutative; with
// three or more the summation order, and so the rounding, may differ).
func TestDedupRadixMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		order := 1 + trial%4
		dims := make([]int, order)
		for a := range dims {
			dims[a] = 1 + r.Intn(9)
		}
		m := New(dims...)
		coord := make([]int, order)
		for e := r.Intn(120); e > 0; e-- {
			for a := range coord {
				coord[a] = r.Intn(dims[a])
			}
			m.Append(coord, r.NormFloat64()*math.Pow(10, float64(r.Intn(12)-6)))
		}
		count := map[[4]int]int{}
		for p := 0; p < m.NNZ(); p++ {
			var k [4]int
			copy(k[:], m.At(p))
			count[k]++
		}
		want := m.Clone()
		comparisonDedup(want)
		m.Dedup()
		if !m.Canonical() || m.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: canonical %v, nnz %d want %d", trial, m.Canonical(), m.NNZ(), want.NNZ())
		}
		for p := 0; p < m.NNZ(); p++ {
			var k [4]int
			copy(k[:], m.At(p))
			for a := range m.Crds {
				if m.Crds[a][p] != want.Crds[a][p] {
					t.Fatalf("trial %d entry %d: coordinates %v, want %v", trial, p, m.At(p), want.At(p))
				}
			}
			if count[k] <= 2 && m.Vals[p] != want.Vals[p] {
				t.Fatalf("trial %d entry %d (%d duplicates): value %v, want %v", trial, p, count[k], m.Vals[p], want.Vals[p])
			}
		}
	}
}

// TestDedupSumsInInputOrder pins the radix path's summation order: three
// duplicates whose sum rounds differently by order are added first to
// last, whatever their position among other entries.
func TestDedupSumsInInputOrder(t *testing.T) {
	m := New(3, 3)
	m.Append([]int{2, 2}, 1)
	m.Append([]int{1, 1}, 1e16)
	m.Append([]int{0, 0}, 1)
	m.Append([]int{1, 1}, 1)
	m.Append([]int{1, 1}, 1)
	m.Dedup()
	big, one := 1e16, 1.0
	if want := big + one + one; m.NNZ() != 3 || m.Vals[1] != want || want == one+one+big {
		t.Fatalf("nnz %d, value %v, want %v", m.NNZ(), m.Vals[1], want)
	}
}

// TestDedupCanonicalUntouched checks the O(n) early return: a canonical
// tensor keeps its slices, and a tensor that is sorted except for one
// duplicate or one inversion is not taken for canonical.
func TestDedupCanonicalUntouched(t *testing.T) {
	m := New(4, 4, 4)
	for _, c := range [][]int{{0, 0, 3}, {0, 1, 0}, {2, 0, 0}, {3, 3, 3}} {
		m.Append(c, 1)
	}
	crd0, vals := &m.Crds[0][0], &m.Vals[0]
	m.Dedup()
	if !m.Canonical() || &m.Crds[0][0] != crd0 || &m.Vals[0] != vals {
		t.Fatal("Dedup reallocated a canonical tensor")
	}
	dup := m.Clone()
	dup.Append([]int{3, 3, 3}, 1)
	inv := m.Clone()
	inv.Append([]int{3, 3, 2}, 1)
	if dup.Canonical() || inv.Canonical() {
		t.Fatalf("non-canonical tensor reported canonical: dup %v, inversion %v", dup.Canonical(), inv.Canonical())
	}
}

// TestDedupHugeGridFallsBack covers a dense size past 2^64, where the
// row-major key would overflow and Dedup takes the comparison sort.
func TestDedupHugeGridFallsBack(t *testing.T) {
	m := New(1<<40, 1<<40)
	m.Append([]int{1 << 39, 5}, 2)
	m.Append([]int{3, 1<<40 - 1}, 1)
	m.Append([]int{1 << 39, 5}, 0.5)
	if m.dedupRadix() {
		t.Fatal("radix path accepted an overflowing grid")
	}
	m.Dedup()
	if !m.Canonical() || m.NNZ() != 2 || m.Crds[0][0] != 3 || m.Vals[1] != 2.5 {
		t.Fatalf("fallback dedup: coords %v %v vals %v", m.Crds[0], m.Crds[1], m.Vals)
	}
}
