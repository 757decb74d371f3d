// Package mmio reads and writes the two on-disk sparse formats the paper's
// datasets ship in: Matrix Market (.mtx, SuiteSparse) and the FROSTT
// tensor format (.tns). Both are 1-indexed text formats.
package mmio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"d2t2/internal/tensor"
)

// maxLine caps one input line, newline included, at 16 MiB.
const maxLine = 1 << 24

// lineReader yields an input's lines, without their "\n" or "\r\n"
// ending, straight from the bufio.Reader's buffer (a longer line is
// gathered into long), and splits them into fields in place. A line and
// its fields are valid until the next call to next.
type lineReader struct {
	br     *bufio.Reader
	long   []byte
	fields [][]byte
}

// next returns the next line, or io.EOF after the last one.
func (l *lineReader) next() ([]byte, error) {
	line, err := l.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		l.long = append(l.long[:0], line...)
		for err == bufio.ErrBufferFull && len(l.long) <= maxLine {
			line, err = l.br.ReadSlice('\n')
			l.long = append(l.long, line...)
		}
		if len(l.long) > maxLine {
			return nil, bufio.ErrTooLong
		}
		line = l.long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), nil
}

// split returns line's fields as strings.Fields would: runs separated
// by ASCII white space, or by Unicode white space when the line holds a
// non-ASCII byte.
func (l *lineReader) split(line []byte) [][]byte {
	f := l.fields[:0]
	for i := 0; i < len(line); {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		j := i
		for ; j < len(line) && !isSpace(line[j]); j++ {
			if line[j] >= utf8.RuneSelf {
				return bytes.Fields(line)
			}
		}
		if j > i {
			f = append(f, line[i:j])
		}
		i = j
	}
	l.fields = f
	return f
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

// ReadMatrixMarket parses a Matrix Market coordinate-format stream into a
// COO matrix. Supported qualifiers: real/integer/pattern and
// general/symmetric/skew-symmetric. Symmetric inputs are expanded to full
// storage; a skew-symmetric mirror entry holds the negated value.
func ReadMatrixMarket(r io.Reader) (*tensor.COO, error) {
	return readMatrixMarket(bufio.NewReaderSize(r, 1<<16), unread(r))
}

// unread reports how many bytes r has left to read when r can tell (a
// bytes.Reader, strings.Reader or bytes.Buffer can), else -1.
func unread(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}

// readMatrixMarket is ReadMatrixMarket on a buffered stream of size
// bytes (-1 when unknown).
func readMatrixMarket(br *bufio.Reader, size int) (*tensor.COO, error) {
	lr := &lineReader{br: br}
	first, err := lr.next()
	if err != nil {
		return nil, fmt.Errorf("mmio: empty input")
	}
	header := strings.Fields(strings.ToLower(string(first)))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mmio: bad MatrixMarket header %q", first)
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: only coordinate format is supported, got %q", header[2])
	}
	pattern := false
	symmetric := false
	mirror := 1.0
	for _, q := range header[3:] {
		switch q {
		case "real", "integer", "general":
		case "pattern":
			pattern = true
		case "symmetric":
			symmetric = true
		case "skew-symmetric":
			symmetric = true
			mirror = -1
		default:
			return nil, fmt.Errorf("mmio: unsupported qualifier %q", q)
		}
	}
	want := 3
	if pattern {
		want = 2
	}

	var m *tensor.COO
	declared, stored := -1, 0
	add := func(i, j int, v float64) {
		m.Crds[0] = append(m.Crds[0], i)
		m.Crds[1] = append(m.Crds[1], j)
		m.Vals = append(m.Vals, v)
	}
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		f := lr.split(line)
		if len(f) == 0 || f[0][0] == '%' {
			continue
		}
		if m == nil {
			if len(f) != 3 {
				return nil, fmt.Errorf("mmio: bad size line %q", bytes.TrimSpace(line))
			}
			rows, ok1 := atoi(f[0])
			cols, ok2 := atoi(f[1])
			nnz, ok3 := atoi(f[2])
			if !ok1 || !ok2 || !ok3 || rows <= 0 || cols <= 0 || nnz < 0 {
				return nil, fmt.Errorf("mmio: bad size line %q", bytes.TrimSpace(line))
			}
			m = tensor.New(rows, cols)
			declared = nnz
			// Presize for the declared entries, but for no more than the
			// input can hold, so a header cannot make the reader allocate:
			// an entry line is want fields, each followed by a space or
			// the line's end. When the size is unknown, only the bytes
			// already buffered are known to be there.
			if size < 0 {
				size = lr.br.Buffered()
			}
			if n := min(nnz, (size+1)/(2*want)); n > 0 {
				if symmetric {
					n *= 2
				}
				m.Crds[0], m.Crds[1], m.Vals = make([]int, 0, n), make([]int, 0, n), make([]float64, 0, n)
			}
			continue
		}
		if len(f) < want {
			return nil, fmt.Errorf("mmio: bad entry line %q", bytes.TrimSpace(line))
		}
		i, ok1 := atoi(f[0])
		j, ok2 := atoi(f[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("mmio: bad entry line %q", bytes.TrimSpace(line))
		}
		v := 1.0
		if !pattern {
			if v, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
				return nil, fmt.Errorf("mmio: bad value in %q: %v", bytes.TrimSpace(line), err)
			}
		}
		if i < 1 || i > m.Dims[0] || j < 1 || j > m.Dims[1] {
			return nil, fmt.Errorf("mmio: entry (%d,%d) out of bounds %v", i, j, m.Dims)
		}
		add(i-1, j-1, v)
		if symmetric && i != j {
			add(j-1, i-1, mirror*v)
		}
		stored++
	}
	if m == nil {
		return nil, fmt.Errorf("mmio: missing size line")
	}
	if stored != declared {
		return nil, fmt.Errorf("mmio: header declares %d entries, found %d", declared, stored)
	}
	m.Dedup()
	return m, nil
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
	lr := &lineReader{br: bufio.NewReaderSize(r, 1<<16)}
	var crds [][]int
	var vals []float64
	order := -1
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		f := lr.split(line)
		if len(f) == 0 || f[0][0] == '#' || f[0][0] == '%' {
			continue
		}
		if order == -1 {
			order = len(f) - 1
			if order < 1 {
				return nil, fmt.Errorf("mmio: bad tns line %q", bytes.TrimSpace(line))
			}
			crds = make([][]int, order)
		}
		if len(f) != order+1 {
			return nil, fmt.Errorf("mmio: inconsistent arity in tns line %q", bytes.TrimSpace(line))
		}
		for a := 0; a < order; a++ {
			c, ok := atoi(f[a])
			if !ok || c < 1 {
				return nil, fmt.Errorf("mmio: bad coordinate in %q", bytes.TrimSpace(line))
			}
			crds[a] = append(crds[a], c-1)
		}
		v, err := strconv.ParseFloat(string(f[order]), 64)
		if err != nil {
			return nil, fmt.Errorf("mmio: bad value in %q", bytes.TrimSpace(line))
		}
		vals = append(vals, v)
	}
	if order == -1 {
		return nil, fmt.Errorf("mmio: empty tns input")
	}
	if dims == nil {
		dims = make([]int, order)
		for a, crd := range crds {
			for _, c := range crd {
				dims[a] = max(dims[a], c+1)
			}
		}
	} else if len(dims) != order {
		return nil, fmt.Errorf("mmio: dims arity %d != tensor order %d", len(dims), order)
	}
	for p := range vals {
		for a, crd := range crds {
			if crd[p] >= dims[a] {
				return nil, fmt.Errorf("mmio: coordinate %d exceeds dim %d on axis %d", crd[p]+1, dims[a], a)
			}
		}
	}
	t := tensor.New(dims...)
	t.Crds, t.Vals = crds, vals
	t.Dedup()
	return t, nil
}

// ReadAny reads a tensor from r, sniffing the format from the stream
// itself: a %%MatrixMarket banner selects the Matrix Market reader,
// anything else the FROSTT .tns reader (dims inferred). This is the
// entry point for streamed uploads that arrive without a filename — the
// stream is consumed directly, never spooled to a temporary file.
func ReadAny(r io.Reader) (*tensor.COO, error) {
	size := unread(r)
	br := bufio.NewReaderSize(r, 1<<16)
	banner := "%%matrixmarket"
	head, err := br.Peek(len(banner))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if strings.EqualFold(string(head), banner) {
		return readMatrixMarket(br, size)
	}
	return ReadTNS(br, nil)
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
