// Package experiments reproduces every table and figure of the paper's
// evaluation (§5.3, §6) on the synthetic dataset suite. Each experiment
// is a function from a Suite (scale and buffer settings) to a Table of
// the same rows the paper reports; cmd/expbench prints them all and
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"d2t2/internal/accel"
	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Table is one reproduced artifact.
type Table struct {
	ID      string // experiment id, e.g. "fig6b"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Append adds a row, formatting each cell with %v.
func (t *Table) Append(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// JSON renders the table as a JSON object (id, title, headers, rows,
// notes) for downstream tooling.
func (t *Table) JSON() string {
	b, err := json.MarshalIndent(struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Headers, t.Rows, t.Notes}, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Suite fixes the dataset scale and machine settings for a run.
type Suite struct {
	// Scale divides the paper dataset dimensions (DESIGN.md §3). Larger
	// is faster; 1 is paper-sized.
	Scale int
	// TileSide is the conservative square tile dimension; the buffer is
	// sized to hold one dense TileSide² CSF tile (Extensor holds 128).
	TileSide int
	// Labels restricts matrix experiments to these dataset labels (nil =
	// the full A..S suite).
	Labels []string
	// Workers fixes the worker count for measurements and for the cold
	// pipeline the coldpipe experiment drives (0 = all cores). The
	// parallel partitions merge counters exactly, so tables are identical
	// for any setting; the determinism regression test checks Workers:1
	// against Workers:4.
	Workers int

	mu    sync.Mutex
	cache map[string]*tensor.COO
}

// DefaultSuite is the full-evaluation configuration.
func DefaultSuite() *Suite { return &Suite{Scale: 32, TileSide: 128} }

// QuickSuite is a fast subset used by tests and benchmarks.
func QuickSuite() *Suite {
	return &Suite{Scale: 96, TileSide: 32, Labels: []string{"A", "E", "I", "Q"}}
}

// BufferWords returns the input-buffer capacity implied by TileSide.
func (s *Suite) BufferWords() int {
	return tiling.DenseFootprintWords([]int{s.TileSide, s.TileSide})
}

// Arch returns the Extensor-proportioned architecture at this buffer.
func (s *Suite) Arch() accel.Arch {
	a := accel.Extensor()
	a.InputBufferWords = s.BufferWords()
	a.OutputBufferWords = s.BufferWords()
	return a
}

// Matrix returns (and caches) the synthetic stand-in for a label.
func (s *Suite) Matrix(label string) (*tensor.COO, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		s.cache = make(map[string]*tensor.COO)
	}
	if m := s.cache[label]; m != nil {
		return m, nil
	}
	d, err := gen.ByLabel(label)
	if err != nil {
		return nil, err
	}
	m := d.Build(s.Scale)
	s.cache[label] = m
	return m, nil
}

// MatrixLabels returns the labels this suite evaluates.
func (s *Suite) MatrixLabels() []string {
	if s.Labels != nil {
		return s.Labels
	}
	var out []string
	for _, d := range gen.Matrices() {
		out = append(out, d.Label)
	}
	sort.Strings(out)
	return out
}

// aat builds the A×Aᵀ operand pair for a label, with B laid out for the
// given kernel (B(k,j) = Aᵀ for ikj; B(j,k) = A for ijk).
func (s *Suite) aat(label string, e *einsum.Expr) (map[string]*tensor.COO, error) {
	a, err := s.Matrix(label)
	if err != nil {
		return nil, err
	}
	b := a.Transpose()
	bref, err := e.Input("B")
	if err != nil {
		return nil, err
	}
	// SpMSpM-ijk accesses B(j,k): computing A×Aᵀ needs B's (j,k) layout
	// to equal Aᵀ's (k,j)... B(j,k)=A gives C = A·Aᵀ directly.
	if bref.Indices[0] == "j" {
		b = a.Clone()
	}
	return map[string]*tensor.COO{"A": a, "B": b}, nil
}

// measureConfig tiles the inputs at cfg and measures traffic. The
// worker count resolves opts.Workers, then s.Workers, then all cores;
// the parallel partition merges counters exactly, so the result is the
// same for any choice. s may be nil for suite-less experiments.
func measureConfig(ctx context.Context, s *Suite, e *einsum.Expr, inputs map[string]*tensor.COO, cfg model.Config, opts *exec.Options) (*exec.Result, error) {
	tiled, err := optimizer.TileAllCtx(ctx, e, inputs, cfg, 0)
	if err != nil {
		return nil, err
	}
	var o exec.Options
	if opts != nil {
		o = *opts
	}
	if o.Workers == 0 && s != nil {
		o.Workers = s.Workers
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return exec.MeasureCtx(ctx, e, tiled, &o)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func mb(words int64) float64 { return float64(words) * 4 / (1 << 20) }

// seededRand derives a deterministic generator from a string tag.
func seededRand(tag string) *rand.Rand {
	var seed int64 = 1469598103934665603
	for _, c := range tag {
		seed = (seed ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed))
}
