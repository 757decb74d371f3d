// Package mmio reads and writes the two on-disk sparse formats the paper's
// datasets ship in: Matrix Market (.mtx, SuiteSparse) and the FROSTT
// tensor format (.tns). Both are 1-indexed text formats.
//
// A reader first holds its whole input in memory, then parses it with
// the package's one line parser. ParseCtx, the upload path, cuts a large
// body at line boundaries into one piece per worker and parses the
// pieces in parallel; ReadAny, ReadMatrixMarket and ReadTNS read their
// stream to its end and parse it as one piece. Every reader returns a
// canonical tensor (sorted in natural axis order, duplicates summed),
// held in exact-sized slices.
package mmio

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"d2t2/internal/par"
	"d2t2/internal/tensor"
)

// maxLine caps one input line, newline included, at 16 MiB.
const maxLine = 1 << 24

// minPiece is the smallest piece of entry lines a parse fans out. One
// KiB of entry lines parses in 7–11 µs at one worker (BenchmarkParse's
// 72 KiB .mtx body), so a 16 KiB piece is 0.1–0.2 ms of work against a
// few µs to start a worker and join its piece.
const minPiece = 16 << 10

// nextLine returns the line of b that starts at off, without its "\n"
// or "\r\n" ending, and the offset of the line after it. A line longer
// than maxLine, newline included, is bufio.ErrTooLong.
func nextLine(b []byte, off int) (line []byte, next int, err error) {
	rest := b[off:]
	end, raw := len(rest), len(rest)
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		end, raw = i, i+1
	}
	if raw > maxLine {
		return nil, 0, bufio.ErrTooLong
	}
	return bytes.TrimSuffix(rest[:end], []byte("\r")), off + raw, nil
}

// fields holds a line's fields as offsets: field k is
// line[f[k][0]:f[k][1]]. Offsets, not subslices, so refilling a
// caller's reused table stores no pointers.
type fields [][2]int

// split appends line's fields to f[:0] as strings.Fields would split
// them — runs separated by ASCII white space, or by Unicode white space
// when the line holds a non-ASCII byte.
func split(line []byte, f fields) fields {
	f = f[:0]
	for i := 0; i < len(line); {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		j := i
		for ; j < len(line) && !isSpace(line[j]); j++ {
			if line[j] >= utf8.RuneSelf {
				return splitUnicode(line, f[:0])
			}
		}
		if j > i {
			f = append(f, [2]int{i, j})
		}
		i = j
	}
	return f
}

// splitUnicode is split for a line holding a non-ASCII byte: fields are
// separated by runs of unicode.IsSpace runes, as bytes.Fields does.
func splitUnicode(line []byte, f fields) fields {
	start := -1
	for i := 0; i < len(line); {
		r, w := utf8.DecodeRune(line[i:])
		switch {
		case unicode.IsSpace(r) && start >= 0:
			f = append(f, [2]int{start, i})
			start = -1
		case !unicode.IsSpace(r) && start < 0:
			start = i
		}
		i += w
	}
	if start >= 0 {
		f = append(f, [2]int{start, len(line)})
	}
	return f
}

// at returns field k of line, split into f.
func (f fields) at(line []byte, k int) []byte { return line[f[k][0]:f[k][1]] }

// comment reports whether line, split into f, is blank or its first
// field starts with one of marks.
func (f fields) comment(line []byte, marks string) bool {
	return len(f) == 0 || strings.IndexByte(marks, line[f[0][0]]) >= 0
}

func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// atoi parses f as strconv.Atoi does: an optional sign and base-10
// digits. Fields short enough that they cannot overflow an int are
// parsed in place; longer ones go through strconv.
func atoi(f []byte) (int, bool) {
	d := f
	if len(d) > 0 && (d[0] == '+' || d[0] == '-') {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 9*strconv.IntSize/32 {
		n, err := strconv.Atoi(string(f))
		return n, err == nil
	}
	n := 0
	for _, c := range d {
		if c-'0' > 9 {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if f[0] == '-' {
		n = -n
	}
	return n, true
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat parses f as strconv.ParseFloat(f, 64) does. A plain
// decimal — an optional sign, digits and at most one point — of at most
// 15 digits is parsed in place: its digits and the power of ten that
// scales them are exact in a float64, so their one IEEE division is the
// correctly rounded value ParseFloat returns. Any other field goes
// through strconv.
func parseFloat(f []byte) (float64, error) {
	d := f
	if len(d) > 0 && (d[0] == '+' || d[0] == '-') {
		d = d[1:]
	}
	var mant uint64
	digits, frac, dot := 0, 0, false
	for _, c := range d {
		switch {
		case c-'0' <= 9:
			mant = mant*10 + uint64(c-'0')
			digits++
			if dot {
				frac++
			}
		case c == '.' && !dot:
			dot = true
		default:
			digits = len(pow10)
		}
	}
	if digits == 0 || digits >= len(pow10) {
		return strconv.ParseFloat(string(f), 64)
	}
	v := float64(mant) / pow10[frac]
	if f[0] == '-' {
		v = -v
	}
	return v, nil
}

// layout is what a body's leading lines fix before its entry lines: for
// Matrix Market the header's qualifiers and the size line, for .tns the
// arity of the first entry line. Entry lines start at start.
type layout struct {
	body  []byte
	start int

	mtx       bool
	pattern   bool
	symmetric bool
	mirror    float64
	want      int // fields per Matrix Market entry line
	declared  int // entry lines the size line declares

	order int   // coordinates per entry
	dims  []int // the size line's, or the caller's for .tns (nil = infer)
}

// mtxLayout reads a Matrix Market body's header, comments and size line.
func mtxLayout(body []byte) (*layout, error) {
	first, off, err := nextLine(body, 0)
	if len(body) == 0 || err != nil {
		return nil, fmt.Errorf("mmio: empty input")
	}
	header := strings.Fields(strings.ToLower(string(first)))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mmio: bad MatrixMarket header %q", first)
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: only coordinate format is supported, got %q", header[2])
	}
	lay := &layout{body: body, mtx: true, mirror: 1, want: 3, order: 2}
	for _, q := range header[3:] {
		switch q {
		case "real", "integer", "general":
		case "pattern":
			lay.pattern = true
			lay.want = 2
		case "symmetric":
			lay.symmetric = true
		case "skew-symmetric":
			lay.symmetric = true
			lay.mirror = -1
		default:
			return nil, fmt.Errorf("mmio: unsupported qualifier %q", q)
		}
	}
	var f fields
	for off < len(body) {
		line, next, err := nextLine(body, off)
		if err != nil {
			return nil, err
		}
		off = next
		if f = split(line, f); f.comment(line, "%") {
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("mmio: bad size line %q", bytes.TrimSpace(line))
		}
		rows, ok1 := atoi(f.at(line, 0))
		cols, ok2 := atoi(f.at(line, 1))
		nnz, ok3 := atoi(f.at(line, 2))
		if !ok1 || !ok2 || !ok3 || rows <= 0 || cols <= 0 || nnz < 0 {
			return nil, fmt.Errorf("mmio: bad size line %q", bytes.TrimSpace(line))
		}
		lay.dims, lay.declared, lay.start = []int{rows, cols}, nnz, off
		return lay, nil
	}
	return nil, fmt.Errorf("mmio: missing size line")
}

// tnsLayout finds a .tns body's first entry line and takes its arity;
// dims, when non-nil, are the caller's dimensions.
func tnsLayout(body []byte, dims []int) (*layout, error) {
	var f fields
	for off := 0; off < len(body); {
		line, next, err := nextLine(body, off)
		if err != nil {
			return nil, err
		}
		f = split(line, f)
		if f.comment(line, "#%") {
			off = next
			continue
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("mmio: bad tns line %q", bytes.TrimSpace(line))
		}
		return &layout{body: body, start: off, order: len(f) - 1, dims: dims}, nil
	}
	return nil, fmt.Errorf("mmio: empty tns input")
}

// sniff picks the reader by the body's banner, as ReadAny documents.
func sniff(body []byte) (*layout, error) {
	banner := "%%matrixmarket"
	if len(body) >= len(banner) && strings.EqualFold(string(body[:len(banner)]), banner) {
		return mtxLayout(body)
	}
	return tnsLayout(body, nil)
}

// piece is the parse of one run of whole entry lines.
type piece struct {
	crds [][]int
	vals []float64
	// stored counts Matrix Market entry lines (a mirrored symmetric
	// entry is one line, two entries).
	stored int
	// canon reports that the piece's entries arrived in strictly
	// increasing natural axis order.
	canon bool
	// ext is, per axis, one past the largest coordinate (a .tns body's
	// inferred dims).
	ext []int
	// err is the first bad line's error; oob, the first entry outside
	// the caller's .tns dims.
	err, oob error
}

// lines bounds the entries a run of lines can hold: one per line.
func lines(b []byte) int {
	n := bytes.Count(b, []byte("\n"))
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// parse parses the entry lines in body[lo:hi], a run of whole lines.
func (lay *layout) parse(lo, hi int) *piece {
	b := lay.body[:hi]
	pc := &piece{crds: make([][]int, lay.order), canon: true, ext: make([]int, lay.order)}
	// Presize for one entry per line, two for a symmetric matrix, and
	// for no more than the size line declares. An entry line is at least
	// its fields, each followed by a space or the line's end, so the
	// piece's bytes also bound its entries: blank lines and a header or
	// first line cannot make the parser allocate more than the body.
	want := lay.order + 1
	if lay.mtx {
		want = lay.want
	}
	n := min(lines(b[lo:]), (hi-lo+1)/(2*want))
	if lay.mtx {
		n = min(n, lay.declared)
		if lay.symmetric {
			n *= 2
		}
	}
	for a := range pc.crds {
		pc.crds[a] = make([]int, 0, n)
	}
	pc.vals = make([]float64, 0, n)
	if lay.mtx {
		pc.err = lay.parseMTX(b, lo, pc)
	} else {
		pc.err = lay.parseTNS(b, lo, pc)
	}
	return pc
}

// parseMTX appends the Matrix Market entry lines of b[off:] to pc.
func (lay *layout) parseMTX(b []byte, off int, pc *piece) error {
	var f fields
	rows, cols := lay.dims[0], lay.dims[1]
	ci, cj := pc.crds[0], pc.crds[1]
	add := func(i, j int, v float64) {
		if p := len(ci) - 1; p >= 0 && (i < ci[p] || i == ci[p] && j <= cj[p]) {
			pc.canon = false
		}
		ci, cj = append(ci, i), append(cj, j)
		pc.vals = append(pc.vals, v)
	}
	defer func() { pc.crds[0], pc.crds[1] = ci, cj }()
	for off < len(b) {
		line, next, err := nextLine(b, off)
		if err != nil {
			return err
		}
		off = next
		f = split(line, f)
		if f.comment(line, "%") {
			continue
		}
		if len(f) < lay.want {
			return fmt.Errorf("mmio: bad entry line %q", bytes.TrimSpace(line))
		}
		i, ok1 := atoi(f.at(line, 0))
		j, ok2 := atoi(f.at(line, 1))
		if !ok1 || !ok2 {
			return fmt.Errorf("mmio: bad entry line %q", bytes.TrimSpace(line))
		}
		v := 1.0
		if !lay.pattern {
			if v, err = parseFloat(f.at(line, 2)); err != nil {
				return fmt.Errorf("mmio: bad value in %q: %v", bytes.TrimSpace(line), err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return fmt.Errorf("mmio: entry (%d,%d) out of bounds %v", i, j, lay.dims)
		}
		add(i-1, j-1, v)
		if lay.symmetric && i != j {
			add(j-1, i-1, lay.mirror*v)
		}
		pc.stored++
	}
	return nil
}

// parseTNS appends the .tns entry lines of b[off:] to pc, and notes the
// first entry outside the caller's dims when it has them.
func (lay *layout) parseTNS(b []byte, off int, pc *piece) error {
	var f fields
	order, crds := lay.order, pc.crds
	check := lay.dims != nil && len(lay.dims) == order
	for off < len(b) {
		line, next, err := nextLine(b, off)
		if err != nil {
			return err
		}
		off = next
		f = split(line, f)
		if f.comment(line, "#%") {
			continue
		}
		if len(f) != order+1 {
			return fmt.Errorf("mmio: inconsistent arity in tns line %q", bytes.TrimSpace(line))
		}
		p := len(pc.vals)
		for a := 0; a < order; a++ {
			c, ok := atoi(f.at(line, a))
			if !ok || c < 1 {
				return fmt.Errorf("mmio: bad coordinate in %q", bytes.TrimSpace(line))
			}
			crds[a] = append(crds[a], c-1)
		}
		v, err := parseFloat(f.at(line, order))
		if err != nil {
			return fmt.Errorf("mmio: bad value in %q", bytes.TrimSpace(line))
		}
		pc.vals = append(pc.vals, v)
		if pc.canon && p > 0 && !lessAt(crds, p-1, p) {
			pc.canon = false
		}
		for a, crd := range crds {
			pc.ext[a] = max(pc.ext[a], crd[p]+1)
			if check && pc.oob == nil && crd[p] >= lay.dims[a] {
				pc.oob = fmt.Errorf("mmio: coordinate %d exceeds dim %d on axis %d", crd[p]+1, lay.dims[a], a)
			}
		}
	}
	return nil
}

// lessAt reports whether entry p of crds precedes entry q in natural
// axis order.
func lessAt(crds [][]int, p, q int) bool {
	for _, crd := range crds {
		if crd[p] != crd[q] {
			return crd[p] < crd[q]
		}
	}
	return false
}

// pieces returns how many pieces a parse on workers goroutines cuts the
// entry lines into: one per worker once they span minPiece bytes per
// worker, fewer below.
func (lay *layout) pieces(workers int) int {
	return max(1, min(par.Workers(workers), (len(lay.body)-lay.start)/minPiece))
}

// cuts returns the bounds of k pieces of the entry lines of near-equal
// size, each cut at a line start: piece i is [cuts[i], cuts[i+1]).
func (lay *layout) cuts(k int) []int {
	lo, hi := lay.start, len(lay.body)
	out := append(make([]int, 0, k+1), lo)
	for i := 1; i < k; i++ {
		c := lo + (hi-lo)*i/k
		if c > 0 && lay.body[c-1] != '\n' {
			if j := bytes.IndexByte(lay.body[c:], '\n'); j >= 0 {
				c += j + 1
			} else {
				c = hi
			}
		}
		out = append(out, max(c, out[len(out)-1]))
	}
	return append(out, hi)
}

// join checks the pieces of one body, parsed in order, and joins their
// entries into one tensor with exact-sized slices. It returns the first
// failing piece's error — the error the serial parse meets first — and
// reports whether the entries arrived canonical: each piece in strictly
// increasing order, and each non-empty piece after the last entry of the
// one before.
func (lay *layout) join(pcs []*piece) (*tensor.COO, bool, error) {
	stored, n := 0, 0
	for _, pc := range pcs {
		if pc.err != nil {
			return nil, false, pc.err
		}
		stored += pc.stored
		n += len(pc.vals)
	}
	dims := lay.dims
	if lay.mtx {
		if stored != lay.declared {
			return nil, false, fmt.Errorf("mmio: header declares %d entries, found %d", lay.declared, stored)
		}
	} else if dims == nil {
		dims = make([]int, lay.order)
		for _, pc := range pcs {
			for a, e := range pc.ext {
				dims[a] = max(dims[a], e)
			}
		}
	} else if len(dims) != lay.order {
		return nil, false, fmt.Errorf("mmio: dims arity %d != tensor order %d", len(dims), lay.order)
	} else {
		for _, pc := range pcs {
			if pc.oob != nil {
				return nil, false, pc.oob
			}
		}
	}
	t := tensor.New(dims...)
	canon := true
	var last *piece
	for _, pc := range pcs {
		if len(pc.vals) == 0 {
			continue
		}
		canon = canon && pc.canon
		if last != nil && canon {
			canon = lessAcross(last.crds, len(last.vals)-1, pc.crds)
		}
		last = pc
	}
	if len(pcs) == 1 && cap(pcs[0].vals) == n {
		t.Crds, t.Vals = pcs[0].crds, pcs[0].vals
		return t, canon, nil
	}
	for a := range t.Crds {
		t.Crds[a] = make([]int, 0, n)
		for _, pc := range pcs {
			t.Crds[a] = append(t.Crds[a], pc.crds[a]...)
		}
	}
	t.Vals = make([]float64, 0, n)
	for _, pc := range pcs {
		t.Vals = append(t.Vals, pc.vals...)
	}
	return t, canon, nil
}

// lessAcross reports whether entry p of a precedes the first entry of b
// in natural axis order.
func lessAcross(a [][]int, p int, b [][]int) bool {
	for x := range a {
		if a[x][p] != b[x][0] {
			return a[x][p] < b[x][0]
		}
	}
	return false
}

// finish joins the pieces and canonicalizes an input that did not arrive
// canonical, keeping the slices exact-sized when duplicates were summed.
func (lay *layout) finish(pcs []*piece) (*tensor.COO, error) {
	t, canon, err := lay.join(pcs)
	if err != nil || canon {
		return t, err
	}
	n := t.NNZ()
	t.Dedup()
	if t.NNZ() < n {
		t = t.Clone()
	}
	return t, nil
}

// readAll reads r to its end into memory, in one buffer sized by r's
// length when r can tell (a bytes.Reader, strings.Reader or bytes.Buffer
// can).
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// readOne reads r and parses it as one piece under the layout pick
// chooses for the body.
func readOne(r io.Reader, pick func([]byte) (*layout, error)) (*tensor.COO, error) {
	body, err := readAll(r)
	if err != nil {
		return nil, err
	}
	lay, err := pick(body)
	if err != nil {
		return nil, err
	}
	return lay.finish([]*piece{lay.parse(lay.start, len(body))})
}

// ParseCtx parses a buffered upload, sniffing its format as ReadAny
// does, on up to workers goroutines (0 = all cores): a body whose entry
// lines span more than minPiece bytes per worker is cut at line starts
// into one piece per worker, each piece is parsed on its own worker, and
// the pieces are joined in order. The tensor and any error are those the
// one-piece readers give. A cancelled ctx stops the fan-out before its
// next piece and returns the context's error. The tensor's slices do not
// alias body.
func ParseCtx(ctx context.Context, body []byte, workers int) (*tensor.COO, error) {
	lay, err := sniff(body)
	if err != nil {
		return nil, err
	}
	cuts := lay.cuts(lay.pieces(workers))
	pcs, err := par.MapCtx(ctx, workers, len(cuts)-1, func(i int) (*piece, error) {
		return lay.parse(cuts[i], cuts[i+1]), nil
	})
	if err != nil {
		return nil, err
	}
	return lay.finish(pcs)
}

// ReadMatrixMarket parses a Matrix Market coordinate-format stream into a
// COO matrix. Supported qualifiers: real/integer/pattern and
// general/symmetric/skew-symmetric. Symmetric inputs are expanded to full
// storage; a skew-symmetric mirror entry holds the negated value.
func ReadMatrixMarket(r io.Reader) (*tensor.COO, error) {
	return readOne(r, mtxLayout)
}

// WriteMatrixMarket writes a COO matrix in general real coordinate format.
func WriteMatrixMarket(w io.Writer, m *tensor.COO) error {
	if m.Order() != 2 {
		return fmt.Errorf("mmio: WriteMatrixMarket requires a matrix, got order %d", m.Order())
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(bw, "%d %d %d\n", m.Dims[0], m.Dims[1], m.NNZ())
	for p := 0; p < m.NNZ(); p++ {
		fmt.Fprintf(bw, "%d %d %g\n", m.Crds[0][p]+1, m.Crds[1][p]+1, m.Vals[p])
	}
	return bw.Flush()
}

// ReadTNS parses a FROSTT .tns stream: each line is N 1-based coordinates
// followed by a value. Dimensions are inferred as the per-axis maxima
// unless dims is non-nil.
func ReadTNS(r io.Reader, dims []int) (*tensor.COO, error) {
	return readOne(r, func(body []byte) (*layout, error) { return tnsLayout(body, dims) })
}

// ReadAny reads a tensor from r, sniffing the format from the stream
// itself: a %%MatrixMarket banner selects the Matrix Market reader,
// anything else the FROSTT .tns reader (dims inferred). The stream is
// read into memory and parsed there, never spooled to a temporary file.
func ReadAny(r io.Reader) (*tensor.COO, error) {
	return readOne(r, sniff)
}

// WriteTNS writes a tensor in FROSTT format.
func WriteTNS(w io.Writer, t *tensor.COO) error {
	bw := bufio.NewWriter(w)
	for p := 0; p < t.NNZ(); p++ {
		for a := 0; a < t.Order(); a++ {
			fmt.Fprintf(bw, "%d ", t.Crds[a][p]+1)
		}
		fmt.Fprintf(bw, "%g\n", t.Vals[p])
	}
	return bw.Flush()
}
