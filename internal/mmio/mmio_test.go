package mmio

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"d2t2/internal/tensor"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
3 4 -1
2 2 7
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims[0] != 3 || m.Dims[1] != 4 || m.NNZ() != 3 {
		t.Fatalf("dims=%v nnz=%d", m.Dims, m.NNZ())
	}
	d := m.ToDense()
	if d[0][0] != 2.5 || d[2][3] != -1 || d[1][1] != 7 {
		t.Fatalf("values wrong: %v", d)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1
2 1 2
3 3 3
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 { // (1,1),(2,1),(1,2),(3,3)
		t.Fatalf("expanded nnz = %d, want 4", m.NNZ())
	}
	d := m.ToDense()
	if d[0][1] != 2 || d[1][0] != 2 {
		t.Fatal("symmetric expansion missing mirror entry")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Vals[0] != 1 || m.Vals[1] != 1 {
		t.Fatal("pattern entries should have value 1")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 3\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3\n",
		"%%MatrixMarket matrix coordinate real general\nnot a size line\n",
		"nonsense header\n2 2 0\n",
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d: invalid input accepted", i)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := tensor.New(5, 7)
	m.Append([]int{0, 6}, 1.5)
	m.Append([]int{4, 0}, -2)
	m.Append([]int{2, 3}, 42)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(m, back) {
		t.Fatal("MatrixMarket round trip lost data")
	}
}

func TestWriteMatrixMarketRejectsTensor(t *testing.T) {
	if err := WriteMatrixMarket(&bytes.Buffer{}, tensor.New(2, 2, 2)); err == nil {
		t.Fatal("3-tensor accepted by matrix writer")
	}
}

func TestReadTNS(t *testing.T) {
	in := `# FROSTT-style
1 1 1 5.0
2 3 4 1.5
`
	m, err := ReadTNS(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order() != 3 || m.NNZ() != 2 {
		t.Fatalf("order=%d nnz=%d", m.Order(), m.NNZ())
	}
	if m.Dims[0] != 2 || m.Dims[1] != 3 || m.Dims[2] != 4 {
		t.Fatalf("inferred dims = %v", m.Dims)
	}
}

func TestReadTNSExplicitDims(t *testing.T) {
	in := "1 1 2\n"
	m, err := ReadTNS(strings.NewReader(in), []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims[0] != 10 || m.Dims[1] != 10 {
		t.Fatalf("dims = %v", m.Dims)
	}
	if _, err := ReadTNS(strings.NewReader(in), []int{1, 1, 1}); err == nil {
		t.Fatal("wrong-arity dims accepted")
	}
}

func TestReadTNSErrors(t *testing.T) {
	cases := []string{
		"",
		"1 2\n1 2 3\n",
		"0 1 5\n",
		"1 x 5\n",
	}
	for i, in := range cases {
		if _, err := ReadTNS(strings.NewReader(in), nil); err == nil {
			t.Fatalf("case %d: invalid tns accepted", i)
		}
	}
}

func TestQuickTNSRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := tensor.New(6, 7, 8)
		for i := 0; i < 30; i++ {
			m.Append([]int{r.Intn(6), r.Intn(7), r.Intn(8)}, float64(1+r.Intn(9)))
		}
		m.Dedup()
		var buf bytes.Buffer
		if err := WriteTNS(&buf, m); err != nil {
			return false
		}
		back, err := ReadTNS(&buf, m.Dims)
		if err != nil {
			return false
		}
		return tensor.Equal(m, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadMatrixMarketSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
3 3 1
2 1 4
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 { // mirrored off-diagonal
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if d := m.ToDense(); d[1][0] != 4 || d[0][1] != -4 {
		t.Fatalf("A[1][0] = %v, A[0][1] = %v; want 4 and -4", d[1][0], d[0][1])
	}
}

func TestReadMatrixMarketIntegerAndComments(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
% header comment
2 2 1

1 2 7
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Vals[0] != 7 {
		t.Fatalf("value = %v", m.Vals[0])
	}
	// Unsupported qualifier.
	if _, err := ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n")); err == nil {
		t.Fatal("complex accepted")
	}
}

func TestReadTNSDimsTooSmall(t *testing.T) {
	if _, err := ReadTNS(strings.NewReader("5 5\n"), []int{2, 2}); err == nil {
		t.Fatal("out-of-range coordinate accepted against explicit dims")
	}
}

// TestHugeDeclaredCountAllocatesLittle feeds a short body whose size line
// declares 2^40 entries: the reader must report the count mismatch
// without sizing anything from the untrusted header.
func TestHugeDeclaredCountAllocatesLittle(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 1099511627776\n1 1 1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadAny(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "header declares 1099511627776 entries, found 1") {
		t.Fatalf("err = %v, want the count mismatch", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte body", got, len(in))
	}
}

// TestReadersMatchOracleEdgeCases pins the inputs where byte-level
// splitting and integer parsing could drift from strings.Fields and
// strconv.Atoi: Unicode spaces, signs, CR line ends, overlong integers,
// lines longer than the read buffer, and each error message.
func TestReadersMatchOracleEdgeCases(t *testing.T) {
	long := strings.Repeat(" ", 70000)
	for _, in := range []string{
		"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 -3\r",
		"%%MatrixMarket matrix coordinate real general\n+2 +2 +1\n+1 +2 +4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00a02 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u20002\u00854\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 4\xff\n",
		"%%MatrixMarket matrix coordinate real general\n\u00a0% comment\n2 2 1\n1 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2" + long + "4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n00000000000000000001 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n-9223372036854775808 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0x1p-2\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1_0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 nan\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n- 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 2 4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2\n",
		"%%MatrixMarket matrix coordinate real general\n2 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
		"%%MatrixMarket matrix coordinate real general\n",
		"%%MatrixMarket matrix coordinate pattern skew-symmetric\n3 3 2\n2 1\n3 3\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1\n1 2 1\n3 3 1\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n",
		"%%MatrixMarket matrix array real general\r\n",
		"%%matrixmarket MATRIX Coordinate REAL General\n1 1 1\n1 1 2\n",
		"# tns\n1 2 3 4\r\n+2 1 1 0.5\n\n",
		"1 2\u00a03 4\n",
		"1 2 3 4\n1 2 4\n",
		"0 1 1\n",
		"1 1 x\n",
		"5\n",
		"% only a comment\n",
		"",
	} {
		assertMatchesOracle(t, in, 3)
	}
}

// assertMatchesOracle runs every reader and its oracle on in and fails
// unless each pair returns the same tensor, bit for bit, or the same
// error message.
func assertMatchesOracle(t *testing.T, in string, dim int) {
	t.Helper()
	dims := []int{dim, dim}
	pairs := []struct {
		name      string
		got, want func() (*tensor.COO, error)
	}{
		{"ReadAny", func() (*tensor.COO, error) { return ReadAny(strings.NewReader(in)) },
			func() (*tensor.COO, error) { return oracleReadAny(strings.NewReader(in)) }},
		{"ReadMatrixMarket", func() (*tensor.COO, error) { return ReadMatrixMarket(strings.NewReader(in)) },
			func() (*tensor.COO, error) { return oracleReadMatrixMarket(strings.NewReader(in)) }},
		{"ReadTNS", func() (*tensor.COO, error) { return ReadTNS(strings.NewReader(in), nil) },
			func() (*tensor.COO, error) { return oracleReadTNS(strings.NewReader(in), nil) }},
		{"ReadTNS(dims)", func() (*tensor.COO, error) { return ReadTNS(strings.NewReader(in), dims) },
			func() (*tensor.COO, error) { return oracleReadTNS(strings.NewReader(in), dims) }},
	}
	for _, p := range pairs {
		got, gerr := p.got()
		want, werr := p.want()
		switch {
		case gerr != nil || werr != nil:
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s(%q): error %v, oracle %v", p.name, in, gerr, werr)
			}
		case !sameCOO(got, want):
			t.Fatalf("%s(%q): got %v %v %v, oracle %v %v %v", p.name, in,
				got.Dims, got.Crds, got.Vals, want.Dims, want.Crds, want.Vals)
		}
	}
}

// sameCOO compares dims, coordinates and value bits entry by entry.
func sameCOO(a, b *tensor.COO) bool {
	if !slices.Equal(a.Dims, b.Dims) || a.NNZ() != b.NNZ() || len(a.Crds) != len(b.Crds) {
		return false
	}
	for x := range a.Crds {
		if !slices.Equal(a.Crds[x], b.Crds[x]) {
			return false
		}
	}
	for p, v := range a.Vals {
		if math.Float64bits(v) != math.Float64bits(b.Vals[p]) {
			return false
		}
	}
	return true
}
