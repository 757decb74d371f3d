package formats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"d2t2/internal/tensor"
)

func TestCSRBuildAndRow(t *testing.T) {
	m := tensor.New(3, 4)
	m.Append([]int{0, 1}, 1)
	m.Append([]int{0, 3}, 2)
	m.Append([]int{2, 0}, 3)
	c := MustBuildCSR(m)
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d", c.NNZ())
	}
	cols, vals := c.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 || vals[1] != 2 {
		t.Fatalf("row 0 = %v %v", cols, vals)
	}
	if cols, _ := c.Row(1); len(cols) != 0 {
		t.Fatal("row 1 should be empty")
	}
	if !tensor.Equal(m, c.ToCOO()) {
		t.Fatal("CSR round trip lost data")
	}
}

func TestMulGustavsonSmall(t *testing.T) {
	a := tensor.FromDense([][]float64{
		{1, 0, 2},
		{0, 3, 0},
	})
	b := tensor.FromDense([][]float64{
		{0, 1},
		{4, 0},
		{0, 5},
	})
	c, err := MulGustavson(MustBuildCSR(a), MustBuildCSR(b))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{0, 11},
		{12, 0},
	}
	got := c.ToCOO().ToDense()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestMulGustavsonDimMismatch(t *testing.T) {
	a := MustBuildCSR(tensor.New(2, 3))
	b := MustBuildCSR(tensor.New(2, 3))
	if _, err := MulGustavson(a, b); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestQuickFormatRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(30)
		m := tensor.New(n, n)
		for i := 0; i < 3*n; i++ {
			m.Append([]int{r.Intn(n), r.Intn(n)}, float64(1+r.Intn(9)))
		}
		m.Dedup()
		return tensor.Equal(m, MustBuildCSR(m).ToCOO())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// denseMul is the brute-force oracle.
func denseMul(a, b [][]float64) [][]float64 {
	r, k, c := len(a), len(b), len(b[0])
	out := make([][]float64, r)
	for i := range out {
		out[i] = make([]float64, c)
		for x := 0; x < k; x++ {
			if a[i][x] == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				out[i][j] += a[i][x] * b[x][j]
			}
		}
	}
	return out
}

func TestQuickGustavsonMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(6)
		a := tensor.New(n, n)
		b := tensor.New(n, n)
		for i := 0; i < 3*n; i++ {
			a.Append([]int{r.Intn(n), r.Intn(n)}, float64(1+r.Intn(4)))
			b.Append([]int{r.Intn(n), r.Intn(n)}, float64(1+r.Intn(4)))
		}
		a.Dedup()
		b.Dedup()
		c, err := MulGustavson(MustBuildCSR(a), MustBuildCSR(b))
		if err != nil {
			return false
		}
		got := c.ToCOO().ToDense()
		want := denseMul(a.ToDense(), b.ToDense())
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
