package mmio

// The line-oriented readers below are the package's previous
// implementation (bufio.Scanner, strings.Fields and strconv on one
// string per line), kept as the oracle the byte-level readers are
// fuzzed against in FuzzReadersMatchOracle. They must not change.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"d2t2/internal/tensor"
)

// oracleReadMatrixMarket parses a Matrix Market coordinate-format stream
// into a COO matrix; skew-symmetric mirrors store the negated value.
func oracleReadMatrixMarket(r io.Reader) (*tensor.COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mmio: bad MatrixMarket header %q", sc.Text())
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

	var m *tensor.COO
	declared := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if m == nil {
			if len(f) != 3 {
				return nil, fmt.Errorf("mmio: bad size line %q", line)
			}
			rows, err1 := strconv.Atoi(f[0])
			cols, err2 := strconv.Atoi(f[1])
			nnz, err3 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || err3 != nil || rows <= 0 || cols <= 0 || nnz < 0 {
				return nil, fmt.Errorf("mmio: bad size line %q", line)
			}
			m = tensor.New(rows, cols)
			declared = nnz
			continue
		}
		want := 3
		if pattern {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("mmio: bad entry line %q", line)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("mmio: bad entry line %q", line)
		}
		v := 1.0
		if !pattern {
			var err error
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: bad value in %q: %v", line, err)
			}
		}
		if i < 1 || i > m.Dims[0] || j < 1 || j > m.Dims[1] {
			return nil, fmt.Errorf("mmio: entry (%d,%d) out of bounds %v", i, j, m.Dims)
		}
		m.Append([]int{i - 1, j - 1}, v)
		if symmetric && i != j {
			m.Append([]int{j - 1, i - 1}, mirror*v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("mmio: missing size line")
	}
	stored := m.NNZ()
	if symmetric {
		// Off-diagonal entries were mirrored; count the originals only.
		stored = 0
		for p := 0; p < m.NNZ(); p++ {
			if m.Crds[0][p] <= m.Crds[1][p] {
				stored++
			}
		}
		// Symmetric inputs store one triangle; mirroring can make either
		// triangle the "original", so accept a count match on either side.
		if stored != declared {
			stored = m.NNZ() - stored + oracleCountDiagonal(m)
		}
	}
	if stored != declared {
		return nil, fmt.Errorf("mmio: header declares %d entries, found %d", declared, stored)
	}
	m.Dedup()
	return m, nil
}

func oracleCountDiagonal(m *tensor.COO) int {
	n := 0
	for p := 0; p < m.NNZ(); p++ {
		if m.Crds[0][p] == m.Crds[1][p] {
			n++
		}
	}
	return n
}

// oracleReadTNS parses a FROSTT .tns stream: each line is N 1-based coordinates
// followed by a value. Dimensions are inferred as the per-axis maxima
// unless dims is non-nil.
func oracleReadTNS(r io.Reader, dims []int) (*tensor.COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var coords [][]int
	var vals []float64
	order := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if order == -1 {
			order = len(f) - 1
			if order < 1 {
				return nil, fmt.Errorf("mmio: bad tns line %q", line)
			}
		}
		if len(f) != order+1 {
			return nil, fmt.Errorf("mmio: inconsistent arity in tns line %q", line)
		}
		c := make([]int, order)
		for a := 0; a < order; a++ {
			v, err := strconv.Atoi(f[a])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("mmio: bad coordinate in %q", line)
			}
			c[a] = v - 1
		}
		v, err := strconv.ParseFloat(f[order], 64)
		if err != nil {
			return nil, fmt.Errorf("mmio: bad value in %q", line)
		}
		coords = append(coords, c)
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if order == -1 {
		return nil, fmt.Errorf("mmio: empty tns input")
	}
	if dims == nil {
		dims = make([]int, order)
		for _, c := range coords {
			for a, v := range c {
				if v+1 > dims[a] {
					dims[a] = v + 1
				}
			}
		}
	} else if len(dims) != order {
		return nil, fmt.Errorf("mmio: dims arity %d != tensor order %d", len(dims), order)
	}
	t := tensor.New(dims...)
	for i, c := range coords {
		for a, v := range c {
			if v >= dims[a] {
				return nil, fmt.Errorf("mmio: coordinate %d exceeds dim %d on axis %d", v+1, dims[a], a)
			}
			_ = v
		}
		t.Append(c, vals[i])
	}
	t.Dedup()
	return t, nil
}

// oracleReadAny reads a tensor from r, sniffing the format from the stream
// itself: a %%MatrixMarket banner selects the Matrix Market reader,
// anything else the FROSTT .tns reader (dims inferred). This is the
// entry point for streamed uploads that arrive without a filename — the
// stream is consumed directly, never spooled to a temporary file.
func oracleReadAny(r io.Reader) (*tensor.COO, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	banner := "%%matrixmarket"
	head, err := br.Peek(len(banner))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if strings.EqualFold(string(head), banner) {
		return oracleReadMatrixMarket(br)
	}
	return oracleReadTNS(br, nil)
}
