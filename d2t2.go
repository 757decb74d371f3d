// Package d2t2 is Data-Driven Tensor Tiling: a reproduction of "A
// Probabilistic Perspective on Tiling Sparse Tensor Algebra" (MICRO 2025).
//
// Given a sparse tensor-algebra kernel in tensor index notation, its
// input tensors, and an accelerator buffer budget, D2T2:
//
//  1. tiles the inputs conservatively and collects occupancy statistics
//     from the compressed-sparse-fiber structures,
//  2. predicts memory traffic for candidate tile shapes with a
//     probabilistic model,
//  3. picks a non-uniform rectangular tile configuration that minimizes
//     predicted traffic, then grows it while every input tile is still
//     guaranteed to fit the buffer.
//
// The package also bundles the paper's baselines (Conservative,
// Prescient, Tailors overbooking, a DRT dynamic-tiling simulator), a
// measurement backend that executes tiled kernels and reports exact
// traffic, and machine models for an Extensor-like accelerator and the
// Opal CGRA.
//
// Quick start:
//
//	a, _ := d2t2.FromMatrixMarket(f)         // or d2t2.Dataset("C", 32)
//	b := a.Transpose()
//	k, _ := d2t2.ParseKernel("C(i,j) = A(i,k) * B(k,j) | order: i,k,j")
//	ctx := context.Background()
//	plan, _ := d2t2.OptimizeCtx(ctx, k, d2t2.Inputs{"A": a, "B": b},
//	    d2t2.Options{BufferWords: d2t2.Extensor().InputBufferWords})
//	report, _ := plan.MeasureCtx(ctx)
//	fmt.Println(plan.Config, report.TotalMB())
package d2t2

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"d2t2/internal/accel"
	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/mmio"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/par"
	"d2t2/internal/schemes"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Tensor is a sparse tensor in coordinate form.
type Tensor struct {
	coo *tensor.COO
	// id memoizes the content address (Session.TensorID) on the tensor,
	// so the memo lives exactly as long as the tensor; Set clears it.
	id atomic.Pointer[string]
	// artifact holds the encoded snapshot tensor artifact Session.DeltaCtx
	// produced with the ID, until Session.TensorArtifact takes it; Set
	// clears it.
	artifact atomic.Pointer[[]byte]
	// canon memoizes the canonical view (canonical) that the ID, the
	// statistics and every kernel run read; Set clears it.
	canon atomic.Pointer[tensor.COO]
}

// NewTensor creates an empty sparse tensor with the given dimensions.
func NewTensor(dims ...int) *Tensor {
	return &Tensor{coo: tensor.New(dims...)}
}

// Set appends a nonzero entry. Duplicate coordinates are summed when the
// tensor is next normalized; every library call reads the tensor as if
// it were normalized (the tensor itself is left as it is).
func (t *Tensor) Set(coord []int, val float64) {
	t.coo.Append(coord, val)
	t.id.Store(nil)
	t.artifact.Store(nil)
	t.canon.Store(nil)
}

// canonical returns the tensor's canonical view, sorted with duplicates
// summed: its own storage when that is canonical already, else one
// Dedup'ed clone, memoized until Set. Concurrent first callers may each
// build a clone; the clones are equal.
func (t *Tensor) canonical() *tensor.COO {
	if c := t.canon.Load(); c != nil {
		return c
	}
	c := t.coo
	if !c.Canonical() {
		c = c.Clone()
		c.Dedup()
	}
	t.canon.Store(c)
	return c
}

// Dims returns the dimension sizes.
func (t *Tensor) Dims() []int { return append([]int(nil), t.coo.Dims...) }

// NNZ returns the number of stored entries.
func (t *Tensor) NNZ() int { return t.coo.NNZ() }

// Order returns the number of dimensions.
func (t *Tensor) Order() int { return t.coo.Order() }

// Entry returns the coordinates and value of stored entry p.
func (t *Tensor) Entry(p int) ([]int, float64) { return t.coo.At(p), t.coo.Vals[p] }

// Transpose returns the transposed matrix (panics on non-matrices).
func (t *Tensor) Transpose() *Tensor { return &Tensor{coo: t.coo.Transpose()} }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor { return &Tensor{coo: t.coo.Clone()} }

// Normalize sorts entries and combines duplicates in place. A tensor
// known canonical — parsed, or already normalized — is left as it is.
func (t *Tensor) Normalize() {
	if t.canon.Load() != t.coo {
		t.coo.Dedup()
		t.canon.Store(t.coo)
	}
}

// Spy renders an ASCII occupancy plot of a matrix (density glyphs per
// grid cell) — useful for eyeballing the structure the optimizer reacts
// to.
func (t *Tensor) Spy(width, height int) string { return t.coo.Spy(width, height) }

// FromMatrixMarket reads a Matrix Market (.mtx) stream.
func FromMatrixMarket(r io.Reader) (*Tensor, error) {
	return parsed(mmio.ReadMatrixMarket(r))
}

// parsed wraps a reader's tensor, which is canonical: Normalize, the
// canonical view and the content address take it as it is, without
// scanning it again.
func parsed(c *tensor.COO, err error) (*Tensor, error) {
	if err != nil {
		return nil, err
	}
	t := &Tensor{coo: c}
	t.canon.Store(c)
	return t, nil
}

// ToMatrixMarket writes the matrix in Matrix Market format.
func (t *Tensor) ToMatrixMarket(w io.Writer) error { return mmio.WriteMatrixMarket(w, t.coo) }

// FromTNS reads a FROSTT (.tns) stream; dims nil infers sizes.
func FromTNS(r io.Reader, dims []int) (*Tensor, error) {
	return parsed(mmio.ReadTNS(r, dims))
}

// ToTNS writes the tensor in FROSTT format.
func (t *Tensor) ToTNS(w io.Writer) error { return mmio.WriteTNS(w, t.coo) }

// FromStream reads a tensor from r, sniffing the on-disk format from the
// stream itself (Matrix Market banner vs. FROSTT lines). The stream is
// read into memory and parsed there, never spooled to a temporary file;
// FromBytesCtx parses a body already in memory.
func FromStream(r io.Reader) (*Tensor, error) {
	return parsed(mmio.ReadAny(r))
}

// FromBytesCtx parses a buffered upload, sniffing its format as
// FromStream does, on up to workers goroutines (0 = all cores): a large
// body is cut at line boundaries into one piece per worker. The tensor
// and any error are FromStream's; a cancelled ctx stops the parse at its
// next piece with the context's error. The tensor does not alias body.
func FromBytesCtx(ctx context.Context, body []byte, workers int) (*Tensor, error) {
	return parsed(mmio.ParseCtx(ctx, body, workers))
}

// COO returns the tensor's underlying coordinate storage — shared, not
// copied; callers must treat it as read-only. In-module service code
// (internal/serve) uses it to hand tensors to the snapshot codec.
func (t *Tensor) COO() *tensor.COO { return t.coo }

// FromCOO wraps coordinate storage decoded from a snapshot artifact as a
// public Tensor. The storage is shared, not copied, and must not be
// mutated afterwards. A non-empty id is the tensor's content address,
// which the caller has already derived (snapshot.DecodeTensor,
// snapshot.TensorArtifact), so TensorID does not encode the tensor again.
func FromCOO(c *tensor.COO, id string) *Tensor {
	t := &Tensor{coo: c}
	if id != "" {
		t.id.Store(&id)
	}
	return t
}

// Dataset synthesizes the named stand-in for one of the paper's
// evaluation datasets (labels A..W of Table 2, or Table 5 names such as
// "bwm2000"). scale divides the original dimensions; 1 is paper-sized.
func Dataset(label string, scale int) (*Tensor, error) {
	d, err := gen.ByLabel(label)
	if err != nil {
		return nil, err
	}
	return &Tensor{coo: d.Build(scale)}, nil
}

// Kernel is a parsed tensor-algebra statement with a dataflow order.
type Kernel struct {
	expr *einsum.Expr
	str  string // expr.String(), formatted once
}

// newKernel wraps e, formatting its canonical string once.
func newKernel(e *einsum.Expr) *Kernel { return &Kernel{expr: e, str: e.String()} }

// ParseKernel parses tensor index notation such as
// "C(i,j) = A(i,k) * B(k,j) | order: i,k,j".
func ParseKernel(s string) (*Kernel, error) {
	e, err := einsum.Parse(s)
	if err != nil {
		return nil, err
	}
	return newKernel(e), nil
}

// Gustavson returns the SpMSpM-ikj kernel (row-wise product).
func Gustavson() *Kernel { return newKernel(einsum.SpMSpMIKJ()) }

// InnerProduct returns the SpMSpM-ijk kernel (A times Bᵀ layout).
func InnerProduct() *Kernel { return newKernel(einsum.SpMSpMIJK()) }

// TTM returns the tensor-times-matrix kernel of the paper's Table 3.
func TTM() *Kernel { return newKernel(einsum.TTM()) }

// MTTKRP returns the order-3 MTTKRP kernel of the paper's Table 3.
func MTTKRP() *Kernel { return newKernel(einsum.MTTKRP3()) }

// SDDMM returns the sampled matrix-matrix product kernel
// E(i,j) = S(i,j)·ΣA(i,k)B(k,j).
func SDDMM() *Kernel { return newKernel(einsum.SDDMM()) }

// String returns the kernel in TIN syntax.
func (k *Kernel) String() string { return k.str }

// InputOrders returns the tensor order of each distinct input operand,
// keyed by operand name. Services use it to validate request inputs and
// to size default dense tile buffers without reaching into the einsum
// representation.
func (k *Kernel) InputOrders() map[string]int {
	out := make(map[string]int)
	for _, ref := range k.expr.Inputs() {
		out[ref.Name] = len(ref.Indices)
	}
	return out
}

// Inputs maps kernel tensor names to tensors.
type Inputs map[string]*Tensor

func (in Inputs) lower() map[string]*tensor.COO {
	out := make(map[string]*tensor.COO, len(in))
	for name, t := range in {
		out[name] = t.canonical()
	}
	return out
}

// TileConfig assigns a tile size to each index variable of a kernel.
type TileConfig map[string]int

// Options configures the optimizer.
type Options struct {
	// BufferWords is the accelerator's input tile buffer in 4-byte words
	// (use Extensor().InputBufferWords or Opal().InputBufferWords).
	BufferWords int
	// Analytic selects the paper-faithful analytic statistics path
	// instead of exact micro-tile re-evaluation.
	Analytic bool
	// DisableCorrs turns off the output-reuse correlation discount.
	DisableCorrs bool
	// SkipResize stops after shape optimization.
	SkipResize bool
	// Workers bounds the worker pool for the cold pipeline — per-tensor
	// tiling + statistics collection, partitioned collection passes, and
	// the parallel shape sweep (0 = all cores). The result is
	// byte-identical at any worker count.
	Workers int
	// OverflowTarget enables risk-aware sizing (Tailors-style
	// overbooking): the acceptable predicted probability that a fetched
	// input tile overflows the buffer. 0 — the default — keeps the
	// worst-case conservative pipeline, byte-identical to previous
	// releases; must be in [0, 1). See Plan.Risk for the outcome.
	OverflowTarget float64
	// Calibrate runs the measurement backend on the chosen config and
	// folds the measured-vs-predicted traffic residual back into the
	// model (per workload class). Through a Session the residual store
	// is shared, so repeated calibrated optimizes converge.
	Calibrate bool
}

// RiskSummary reports a plan's risk-aware sizing decision: the
// requested overflow target, the percentile seed, the predicted
// overflow rate and buffer utilization at the chosen config, and any
// calibration outcome.
type RiskSummary = optimizer.RiskReport

// CalibrationSummary is the outcome of one calibration run: measured vs
// predicted traffic, the residual, and the updated workload-class bias.
type CalibrationSummary = optimizer.CalibrationReport

// Plan is an optimized tiling scheme bound to its kernel and inputs.
type Plan struct {
	// Config is the chosen per-index tile configuration.
	Config TileConfig
	// BaseTile is the conservative square tile the pipeline started from;
	// RF the chosen reorder factor (shape aspect); TileFactor the Eq. 22
	// size-growth seed.
	BaseTile   int
	RF         float64
	TileFactor int
	// PredictedMB is the model's traffic estimate for Config.
	PredictedMB float64
	// Risk summarizes the risk-aware sizing decision; nil on the
	// conservative path (OverflowTarget 0, no calibration).
	Risk *RiskSummary

	kernel *Kernel
	inputs Inputs
	// workers is the worker-pool bound the plan was optimized with
	// (0 = all cores); MeasureCtx reuses it for the measurement backend.
	workers int
	// bufferWords is the optimization's buffer budget; overbooked plans
	// measure with it so overflow traffic is metered honestly.
	bufferWords int
}

// lower converts the public options to the optimizer's.
func (opts Options) lower() optimizer.Options {
	o := optimizer.Options{
		BufferWords:    opts.BufferWords,
		DisableCorrs:   opts.DisableCorrs,
		SkipResize:     opts.SkipResize,
		Workers:        opts.Workers,
		OverflowTarget: opts.OverflowTarget,
		Calibrate:      opts.Calibrate,
	}
	if opts.Analytic {
		o.Mode = model.ModeAnalytic
	}
	return o
}

// newPlan wraps an optimizer result as a public Plan.
func newPlan(res *optimizer.Result, k *Kernel, inputs Inputs, workers, bufferWords int) *Plan {
	cfg := make(TileConfig, len(res.Config))
	for ix, v := range res.Config {
		cfg[ix] = v
	}
	return &Plan{
		Config:      cfg,
		BaseTile:    res.BaseTile,
		RF:          res.RF,
		TileFactor:  res.TileFactor,
		PredictedMB: res.Predicted.Total() * 4 / (1 << 20),
		Risk:        res.Risk,
		kernel:      k,
		inputs:      inputs,
		workers:     workers,
		bufferWords: bufferWords,
	}
}

// OptimizeCtx runs the D2T2 pipeline and returns the chosen plan. It
// runs on a fresh Session, so it takes the path d2t2d's optimizes take.
// A cancelled or deadline-expired ctx stops the pipeline at its next
// work-item boundary (collection chunk, sweep candidate, growth
// doubling) and returns the context's error.
func OptimizeCtx(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	s := NewSession(nil)
	s.Workers = opts.Workers
	return s.OptimizeCtx(ctx, k, inputs, opts)
}

// OptimizeDataflow extends OptimizeCtx by also choosing the dataflow
// order: every permutation of the kernel's index variables is optimized,
// and the plan with the least predicted traffic (the first such, in
// permutation order) is returned along with its order. The orders share
// one Batch on a fresh Session, so orders that store an input in the
// same level order share its statistics. The returned plan measures and
// executes under the chosen order.
func OptimizeDataflow(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, []string, error) {
	return NewSession(nil).NewBatch().optimizeDataflow(ctx, k, inputs, opts)
}

// TrafficReport is the measured cost of executing a tiled kernel.
type TrafficReport struct {
	// InputWords per tensor name and OutputWords, in 4-byte words.
	InputWords  map[string]int64
	OutputWords int64
	// TileIterations and MACs characterize the execution.
	TileIterations int64
	MACs           int64

	traffic exec.Traffic
}

// TotalWords returns input + output traffic in words.
func (r *TrafficReport) TotalWords() int64 { return r.traffic.Total() }

// OverflowRate returns the fraction of input tile fetches that
// overflowed the modeled buffer — 0 unless the measurement ran under an
// overbooked buffer (a plan with a positive OverflowTarget).
func (r *TrafficReport) OverflowRate() float64 {
	if r.traffic.InputFetches == 0 {
		return 0
	}
	return float64(r.traffic.OverflowFetches) / float64(r.traffic.InputFetches)
}

// TotalMB returns total traffic in megabytes.
func (r *TrafficReport) TotalMB() float64 { return r.traffic.TotalMB() }

// MeasureCtx tiles the plan's inputs with its configuration and
// executes the kernel on the measurement backend, returning exact
// traffic. Both the retiling pass and the measurement itself are
// cancellable: the backend checks ctx between outer-tile work units, so
// a deadline or client disconnect stops an executing measurement at the
// next tile boundary instead of running it to completion. The
// measurement runs on the worker pool the plan was optimized with (0 =
// all cores) — traffic counters are exact integers and merge
// identically at any worker count.
func (p *Plan) MeasureCtx(ctx context.Context) (*TrafficReport, error) {
	tiled, err := optimizer.TileAllCtx(ctx, p.kernel.expr, p.inputs.lower(), model.Config(p.Config), p.workers)
	if err != nil {
		return nil, err
	}
	eo := &exec.Options{Workers: par.Workers(p.workers)}
	if p.Risk != nil && p.Risk.OverflowTarget > 0 {
		// Overbooked plans measure under the buffer model they were
		// costed with, so overflow re-streaming shows up in the traffic.
		eo.InputBufferWords = p.bufferWords
		eo.OverflowExtra = p.Risk.OverflowExtra
	}
	res, err := exec.MeasureCtx(ctx, p.kernel.expr, tiled, eo)
	if err != nil {
		return nil, err
	}
	return newReport(&res.Traffic), nil
}

// MeasureKey names the plan's measurement by exactly what MeasureCtx
// reads: the kernel (its loop order included), each operand's name and
// content address, the chosen Config and — for an overbooked plan only —
// the buffer model it measures under. The measured traffic is a pure
// function of the key, so plans with equal keys measure identical
// reports whatever buffer or worker count chose them, and a caller may
// measure each key once. A tensor that changes gets a new content
// address, and so a new key.
func (p *Plan) MeasureKey() (string, error) {
	var b strings.Builder
	b.WriteString(p.kernel.String())
	orders := p.kernel.InputOrders()
	names := make([]string, 0, len(orders))
	for name := range orders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := p.inputs[name]
		if t == nil {
			return "", fmt.Errorf("d2t2: missing input %q", name)
		}
		id, err := t.contentID()
		if err != nil {
			return "", err
		}
		b.WriteString("\n" + name + "=" + id)
	}
	ixs := make([]string, 0, len(p.Config))
	for ix := range p.Config {
		ixs = append(ixs, ix)
	}
	sort.Strings(ixs)
	b.WriteString("\nconfig")
	for _, ix := range ixs {
		b.WriteString(" " + ix + "=" + strconv.Itoa(p.Config[ix]))
	}
	if p.Risk != nil && p.Risk.OverflowTarget > 0 {
		b.WriteString("\nbuffer=" + strconv.Itoa(p.bufferWords) +
			" overflowExtra=" + strconv.FormatFloat(p.Risk.OverflowExtra, 'g', -1, 64))
	}
	return b.String(), nil
}

// Execute runs the kernel and returns the result tensor along with the
// traffic report.
func (p *Plan) Execute(ctx context.Context) (*Tensor, *TrafficReport, error) {
	return executeConfig(ctx, p.kernel, p.inputs, p.Config)
}

// MeasureConfig measures an arbitrary tile configuration.
func MeasureConfig(ctx context.Context, k *Kernel, inputs Inputs, cfg TileConfig) (*TrafficReport, error) {
	tiled, err := optimizer.TileAllCtx(ctx, k.expr, inputs.lower(), model.Config(cfg), 0)
	if err != nil {
		return nil, err
	}
	res, err := exec.MeasureCtx(ctx, k.expr, tiled, nil)
	if err != nil {
		return nil, err
	}
	return newReport(&res.Traffic), nil
}

func executeConfig(ctx context.Context, k *Kernel, inputs Inputs, cfg TileConfig) (*Tensor, *TrafficReport, error) {
	tiled, err := optimizer.TileAllCtx(ctx, k.expr, inputs.lower(), model.Config(cfg), 0)
	if err != nil {
		return nil, nil, err
	}
	res, err := exec.MeasureCtx(ctx, k.expr, tiled, &exec.Options{CollectOutput: true})
	if err != nil {
		return nil, nil, err
	}
	return &Tensor{coo: res.Out}, newReport(&res.Traffic), nil
}

func newReport(t *exec.Traffic) *TrafficReport {
	r := &TrafficReport{
		InputWords:     make(map[string]int64, len(t.Input)),
		OutputWords:    t.Output,
		TileIterations: t.TileIterations,
		MACs:           t.MACs,
		traffic:        *t,
	}
	for name, w := range t.Input {
		r.InputWords[name] = w
	}
	return r
}

// ConservativeConfig returns the square scheme that fits a dense tile.
func ConservativeConfig(k *Kernel, bufferWords int) TileConfig {
	cfg := schemes.Conservative(k.expr, bufferWords)
	out := make(TileConfig, len(cfg))
	for ix, v := range cfg {
		out[ix] = v
	}
	return out
}

// PrescientConfig returns the largest square scheme whose actual tiles
// fit the buffer (the oracle baseline of the paper).
func PrescientConfig(ctx context.Context, k *Kernel, inputs Inputs, bufferWords int) (TileConfig, error) {
	cfg, err := schemes.Prescient(ctx, k.expr, inputs.lower(), bufferWords)
	if err != nil {
		return nil, err
	}
	out := make(TileConfig, len(cfg))
	for ix, v := range cfg {
		out[ix] = v
	}
	return out, nil
}

// Arch is an accelerator machine model.
type Arch = accel.Arch

// Extensor returns the Extensor-like machine of the paper's evaluation.
func Extensor() Arch { return accel.Extensor() }

// Opal returns the Opal CGRA machine of §6.4.
func Opal() Arch { return accel.Opal() }

// Runtime returns the modeled execution time in cycles of a measured
// traffic report on the given machine.
func Runtime(r *TrafficReport, a Arch) float64 { return accel.Cycles(&r.traffic, a) }

// Speedup returns reference runtime / target runtime on the machine.
func Speedup(reference, target *TrafficReport, a Arch) float64 {
	return accel.Speedup(&reference.traffic, &target.traffic, a)
}

// DenseTileWords returns the CSF footprint of a fully dense tile with
// the given per-axis dimensions — useful for sizing BufferWords.
func DenseTileWords(dims ...int) int { return tiling.DenseFootprintWords(dims) }

// EnergyModel holds per-event energy costs in picojoules; see
// DefaultEnergy for the conventional accelerator hierarchy.
type EnergyModel = accel.EnergyModel

// DefaultEnergy returns the standard DRAM≫SRAM≫MAC cost ratios.
func DefaultEnergy() EnergyModel { return accel.DefaultEnergy() }

// EnergyPJ estimates the energy of a measured execution in picojoules.
func EnergyPJ(r *TrafficReport, m EnergyModel) float64 {
	return accel.EnergyPJ(&r.traffic, m)
}

// Validate checks a tile configuration covers every kernel index.
func (k *Kernel) Validate(cfg TileConfig) error {
	for _, ix := range k.expr.Order {
		if cfg[ix] < 1 {
			return fmt.Errorf("d2t2: config misses index %q", ix)
		}
	}
	return nil
}
