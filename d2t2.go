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
//	plan, _ := d2t2.Optimize(k, d2t2.Inputs{"A": a, "B": b},
//	    d2t2.Options{BufferWords: d2t2.Extensor().InputBufferWords})
//	report, _ := plan.Measure()
//	fmt.Println(plan.Config, report.TotalMB())
package d2t2

import (
	"context"
	"fmt"
	"io"
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
}

// NewTensor creates an empty sparse tensor with the given dimensions.
func NewTensor(dims ...int) *Tensor {
	return &Tensor{coo: tensor.New(dims...)}
}

// Set appends a nonzero entry. Duplicate coordinates are summed when the
// tensor is next normalized (any library call normalizes as needed).
func (t *Tensor) Set(coord []int, val float64) {
	t.coo.Append(coord, val)
	t.id.Store(nil)
	t.artifact.Store(nil)
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

// Normalize sorts entries and combines duplicates in place.
func (t *Tensor) Normalize() { t.coo.Dedup() }

// Spy renders an ASCII occupancy plot of a matrix (density glyphs per
// grid cell) — useful for eyeballing the structure the optimizer reacts
// to.
func (t *Tensor) Spy(width, height int) string { return t.coo.Spy(width, height) }

// FromMatrixMarket reads a Matrix Market (.mtx) stream.
func FromMatrixMarket(r io.Reader) (*Tensor, error) {
	m, err := mmio.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	return &Tensor{coo: m}, nil
}

// ToMatrixMarket writes the matrix in Matrix Market format.
func (t *Tensor) ToMatrixMarket(w io.Writer) error { return mmio.WriteMatrixMarket(w, t.coo) }

// FromTNS reads a FROSTT (.tns) stream; dims nil infers sizes.
func FromTNS(r io.Reader, dims []int) (*Tensor, error) {
	m, err := mmio.ReadTNS(r, dims)
	if err != nil {
		return nil, err
	}
	return &Tensor{coo: m}, nil
}

// ToTNS writes the tensor in FROSTT format.
func (t *Tensor) ToTNS(w io.Writer) error { return mmio.WriteTNS(w, t.coo) }

// FromStream reads a tensor from r, sniffing the on-disk format from the
// stream itself (Matrix Market banner vs. FROSTT lines). This is the
// ingest path of the d2t2d service: uploads are parsed straight off the
// wire, never spooled to a temporary file.
func FromStream(r io.Reader) (*Tensor, error) {
	m, err := mmio.ReadAny(r)
	if err != nil {
		return nil, err
	}
	return &Tensor{coo: m}, nil
}

// COO returns the tensor's underlying coordinate storage — shared, not
// copied; callers must treat it as read-only. In-module service code
// (internal/serve) uses it to hand tensors to the snapshot codec.
func (t *Tensor) COO() *tensor.COO { return t.coo }

// FromCOO wraps coordinate storage decoded from a snapshot artifact as a
// public Tensor. The storage is shared, not copied, and must not be
// mutated afterwards.
func FromCOO(c *tensor.COO) *Tensor { return &Tensor{coo: c} }

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
}

// ParseKernel parses tensor index notation such as
// "C(i,j) = A(i,k) * B(k,j) | order: i,k,j".
func ParseKernel(s string) (*Kernel, error) {
	e, err := einsum.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Kernel{expr: e}, nil
}

// Gustavson returns the SpMSpM-ikj kernel (row-wise product).
func Gustavson() *Kernel { return &Kernel{expr: einsum.SpMSpMIKJ()} }

// InnerProduct returns the SpMSpM-ijk kernel (A times Bᵀ layout).
func InnerProduct() *Kernel { return &Kernel{expr: einsum.SpMSpMIJK()} }

// TTM returns the tensor-times-matrix kernel of the paper's Table 3.
func TTM() *Kernel { return &Kernel{expr: einsum.TTM()} }

// MTTKRP returns the order-3 MTTKRP kernel of the paper's Table 3.
func MTTKRP() *Kernel { return &Kernel{expr: einsum.MTTKRP3()} }

// SDDMM returns the sampled matrix-matrix product kernel
// E(i,j) = S(i,j)·ΣA(i,k)B(k,j).
func SDDMM() *Kernel { return &Kernel{expr: einsum.SDDMM()} }

// String returns the kernel in TIN syntax.
func (k *Kernel) String() string { return k.expr.String() }

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
		out[name] = t.coo
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
	// (0 = all cores); Measure reuses it for the measurement backend.
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

// Optimize runs the D2T2 pipeline and returns the chosen plan.
func Optimize(k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	return OptimizeCtx(context.Background(), k, inputs, opts)
}

// OptimizeCtx is Optimize with cooperative cancellation: a cancelled or
// deadline-expired ctx stops the pipeline at its next work-item
// boundary (tile group, collection chunk, sweep candidate, growth
// doubling) and returns the context's error. A never-cancelled ctx
// yields exactly Optimize's byte-identical plan.
func OptimizeCtx(ctx context.Context, k *Kernel, inputs Inputs, opts Options) (*Plan, error) {
	res, err := optimizer.OptimizeCtx(ctx, k.expr, inputs.lower(), opts.lower())
	if err != nil {
		return nil, err
	}
	return newPlan(res, k, inputs, opts.Workers, opts.BufferWords), nil
}

// OptimizeDataflow extends Optimize by also choosing the dataflow order:
// every permutation of the kernel's index variables is priced with the
// traffic model and the cheapest optimized plan is returned, along with
// the chosen order. The returned plan measures and executes under that
// order.
func OptimizeDataflow(k *Kernel, inputs Inputs, opts Options) (*Plan, []string, error) {
	res, _, err := optimizer.SelectDataflow(k.expr, inputs.lower(), nil, opts.lower())
	if err != nil {
		return nil, nil, err
	}
	plan := newPlan(res, &Kernel{expr: res.Expr}, inputs, opts.Workers, opts.BufferWords)
	return plan, append([]string(nil), res.Expr.Order...), nil
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

// Measure tiles the plan's inputs with its configuration and executes the
// kernel on the measurement backend, returning exact traffic.
func (p *Plan) Measure() (*TrafficReport, error) {
	return p.MeasureCtx(context.Background())
}

// MeasureCtx is Measure with cooperative cancellation of both the
// retiling pass and the measurement itself: the backend checks ctx
// between outer-tile work units, so a deadline or client disconnect
// stops an executing measurement at the next tile boundary instead of
// running it to completion. The measurement runs on the worker pool
// the plan was optimized with (0 = all cores) — traffic counters are
// exact integers and merge identically at any worker count.
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

// Execute runs the kernel and returns the result tensor along with the
// traffic report.
func (p *Plan) Execute() (*Tensor, *TrafficReport, error) {
	return executeConfig(p.kernel, p.inputs, p.Config)
}

// MeasureConfig measures an arbitrary tile configuration.
func MeasureConfig(k *Kernel, inputs Inputs, cfg TileConfig) (*TrafficReport, error) {
	tiled, err := optimizer.TileAll(k.expr, inputs.lower(), model.Config(cfg))
	if err != nil {
		return nil, err
	}
	res, err := exec.Measure(k.expr, tiled, nil)
	if err != nil {
		return nil, err
	}
	return newReport(&res.Traffic), nil
}

func executeConfig(k *Kernel, inputs Inputs, cfg TileConfig) (*Tensor, *TrafficReport, error) {
	tiled, err := optimizer.TileAll(k.expr, inputs.lower(), model.Config(cfg))
	if err != nil {
		return nil, nil, err
	}
	res, err := exec.Measure(k.expr, tiled, &exec.Options{CollectOutput: true})
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
func PrescientConfig(k *Kernel, inputs Inputs, bufferWords int) (TileConfig, error) {
	cfg, err := schemes.Prescient(k.expr, inputs.lower(), bufferWords)
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
