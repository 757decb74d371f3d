package mmio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
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

// allocated returns the bytes the process allocates while parse runs.
func allocated(parse func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parse()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBlankLinesAllocateLittle feeds bodies that are mostly bare
// newlines behind a header or first line that makes each entry wide: a
// .tns line of 1000 coordinates, and a symmetric Matrix Market size line
// declaring 2^40 entries. Blank lines hold no entry, so the presize must
// follow the body's bytes, not its line count, whether the body is read
// as one piece or parsed on four workers.
func TestBlankLinesAllocateLittle(t *testing.T) {
	wide := strings.Repeat("1 ", 1000) + "1\n" + strings.Repeat("\n", 8<<10)
	sym := "%%MatrixMarket matrix coordinate real symmetric\n2 2 1099511627776\n1 1 1\n" + strings.Repeat("\n", 256<<10)
	readers := []struct {
		name  string
		parse func(string) (*tensor.COO, error)
	}{
		{"ReadAny", func(in string) (*tensor.COO, error) { return ReadAny(strings.NewReader(in)) }},
		{"ParseCtx", func(in string) (*tensor.COO, error) { return ParseCtx(context.Background(), []byte(in), 4) }},
	}
	for _, r := range readers {
		var m *tensor.COO
		var err error
		if got := allocated(func() { m, err = r.parse(wide) }); err != nil || m.NNZ() != 1 || m.Order() != 1000 {
			t.Fatalf("%s wide .tns: nnz %d, err %v; want one order-1000 entry", r.name, m.NNZ(), err)
		} else if got >= 1<<20 {
			t.Fatalf("%s wide .tns: allocated %d bytes for a %d-byte body", r.name, got, len(wide))
		}
		if got := allocated(func() { _, err = r.parse(sym) }); err == nil || !strings.Contains(err.Error(), "header declares 1099511627776 entries, found 1") {
			t.Fatalf("%s symmetric: err = %v, want the count mismatch", r.name, err)
		} else if got >= 16*uint64(len(sym)) {
			t.Fatalf("%s symmetric: allocated %d bytes for a %d-byte body", r.name, got, len(sym))
		}
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

// TestParseFloatMatchesStrconv pins the in-place decimal path to
// strconv.ParseFloat bit for bit, error message included, on its edges
// (signs, points, 15 and 16 digits, zeros) and on random decimals.
func TestParseFloatMatchesStrconv(t *testing.T) {
	in := []string{"0", "-0", "+0", "-0.0", ".5", "5.", ".", "-", "+", "", "1.2.3", "+-1",
		"123456789012345", "1234567890123456", "0.000000000000001", "9007199254740993",
		"999999999999999.9", "3.472", "-9.999", "1e3", "0x1p-2", "nan", "1_0", "00000000000000000001"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		in = append(in, strconv.FormatFloat(r.NormFloat64()*math.Pow(10, float64(r.Intn(12)-6)), 'f', r.Intn(10), 64))
	}
	for _, s := range in {
		got, gerr := parseFloat([]byte(s))
		want, werr := strconv.ParseFloat(s, 64)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv %v, %v", s, got, gerr, want, werr)
		}
	}
}

// TestParseCtxMatchesReadAny parses bodies large enough to fan out on
// 1, 2 and 4 workers, shuffled so they arrive out of order too, and
// requires ReadAny's tensor from each; a cancelled ctx stops the parse
// with the context's error.
func TestParseCtxMatchesReadAny(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var bodies [][]byte
	for _, dims := range [][]int{{700, 900}, {60, 70, 80}} {
		m := tensor.New(dims...)
		c := make([]int, len(dims))
		for e := 0; e < 12000; e++ {
			for a, d := range dims {
				c[a] = r.Intn(d)
			}
			m.Append(c, float64(1+r.Intn(9999))/1000)
		}
		for _, dedup := range []bool{false, true} {
			if dedup {
				m.Dedup()
			}
			var buf bytes.Buffer
			write := WriteTNS
			if len(dims) == 2 {
				write = WriteMatrixMarket
			}
			if err := write(&buf, m); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, buf.Bytes())
		}
	}
	for _, body := range bodies {
		want, err := ReadAny(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := ParseCtx(context.Background(), body, workers)
			if err != nil || !sameCOO(got, want) || cap(got.Vals) != got.NNZ() {
				t.Fatalf("workers %d: err %v, same %v, cap %d for %d entries", workers, err, err == nil && sameCOO(got, want), cap(got.Vals), want.NNZ())
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ParseCtx(ctx, body, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled parse: err %v", err)
		}
	}
}
