// Package exec is the measurement backend (the paper's "TACO backend"):
// it executes a tiled tensor-algebra kernel as the modeled accelerator
// would — a loop nest over outer tile coordinates with tile-granularity
// filtering — and records exact input/output traffic, tile iterations and
// multiply counts.
//
// Semantics (paper §6, experimental setup):
//   - The machine is a push memory: an input tile is fetched at an outer
//     iteration point iff its own tile is non-empty and some work exists
//     in the loop subtree below (tile-granularity filtering only; inner
//     emptiness is discovered after the fetch).
//   - An input tensor is re-fetched once per point of its fetch space —
//     every loop level from the outermost down to its innermost own index
//     (it stays buffer-resident across deeper loops).
//   - The output is accumulated on-chip while it is stationary (across
//     loops deeper than its innermost index) and streamed to memory once
//     per point of its own fetch space; partial results separated by
//     outer loops accumulate in main memory.
package exec

import (
	"context"
	"fmt"
	"sort"

	"d2t2/internal/einsum"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// Traffic is the result of one measured execution. All sizes are in
// 4-byte words (CSF values + metadata).
type Traffic struct {
	Input           map[string]int64 // per input tensor occurrence name
	Output          int64
	OutputWrites    int64
	TileIterations  int64 // leaf iterations with work
	MACs            int64 // scalar multiplications performed
	OutputNNZ       int64 // summed nnz of written partial output tiles
	InputFetches    int64 // input tile fetches (overflowing or not)
	OverflowFetches int64 // fetches of tiles exceeding the input buffer
	OutputOverflows int64 // extra chunk writes of overflowing output tiles
}

// InputTotal returns the summed input traffic in words.
func (t *Traffic) InputTotal() int64 {
	var s int64
	for _, v := range t.Input {
		s += v
	}
	return s
}

// Total returns input + output traffic in words.
func (t *Traffic) Total() int64 { return t.InputTotal() + t.Output }

// TotalMB returns total traffic in megabytes (4-byte words).
func (t *Traffic) TotalMB() float64 { return float64(t.Total()) * 4 / (1 << 20) }

// Options configures a measurement.
type Options struct {
	// CollectOutput accumulates the full output tensor for correctness
	// checks. Costs memory proportional to output nnz.
	CollectOutput bool
	// ValuesOnly counts traffic in nonzero values instead of full CSF
	// footprints (values + metadata). The paper's Figure 3 example uses
	// this accounting "for simplicity".
	ValuesOnly bool
	// InputBufferWords, when positive, models Tailors-style overbooked
	// buffers: an input tile larger than the buffer has its excess
	// streamed and re-fetched, costing OverflowExtra additional traffic
	// per excess word on every fetch (default 1.0 — the overflowed
	// portion crosses memory twice).
	InputBufferWords int
	OverflowExtra    float64
	// Workers > 1 partitions the outermost loop's coordinate values
	// across the par worker pool. All traffic counters are exact
	// integers, so any partition merges to the serial result; the option
	// is honored unconditionally unless CollectOutput is set, in which
	// case the output tensor must carry the outermost index (making
	// every worker's collected coordinates disjoint) — otherwise the
	// option is ignored to preserve float determinism.
	Workers int
	// OutputBufferWords, when positive, models the paper's output
	// overflow handling (§6): an accumulated output tile larger than the
	// output buffer is streamed out in chunks as it fills, each chunk a
	// separate partial write whose fragments accumulate in main memory.
	// The extra cost is the re-written metadata of the extra partials.
	OutputBufferWords int
	// ForceGeneric disables the specialized engine and measures on the
	// generic tree-walking interpreter — the reference oracle the
	// differential suite compares the engine against.
	ForceGeneric bool
}

// Result bundles traffic with the optionally collected output.
type Result struct {
	Traffic
	// Output tensor (nil unless Options.CollectOutput).
	Out *tensor.COO
	// Specialized reports whether the measurement ran on a compiled
	// engine (true) or fell back to the generic walker (false).
	Specialized bool
}

// MeasureCtx runs the kernel described by e over the given tiled
// inputs. Every input occurrence name in e must be present in tensors;
// tensors must be tiled with level orders matching the dataflow order,
// and tile sizes must agree between tensors sharing an index variable.
// Cancellation is cooperative: the backend checks ctx between
// outer-tile work units (once per outermost coordinate value), so a
// cancelled or deadline-expired context stops the measurement at the
// next tile boundary and returns the context's error.
//
// When the kernel is a single product of tensors within the engine's
// shape envelope, the measurement runs on a compiled engine — a
// fixed-rank loop nest with a precomputed per-depth join plan —
// instead of the generic interpreter; Result.Specialized reports which
// path ran. Both paths produce identical Traffic and collected output
// (the differential suite in this package enforces it).
func MeasureCtx(ctx context.Context, e *einsum.Expr, tensors map[string]*tiling.TiledTensor, opts *Options) (*Result, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	r, err := newRunner(e, tensors, opts)
	if err != nil {
		return nil, err
	}
	w := workersFor(e, &r.opts)
	specialized := false
	if p := compileEngine(r); p != nil {
		specialized = true
		if err := p.run(ctx, w); err != nil {
			return nil, err
		}
	} else if w > 1 {
		if err := r.runParallelCtx(ctx, w); err != nil {
			return nil, err
		}
	} else if err := r.runCtx(ctx); err != nil {
		return nil, err
	}
	res := &Result{Traffic: r.traffic, Specialized: specialized}
	if r.collect != nil {
		out := tensor.New(r.outDims...)
		nOut := len(r.outDims)
		coord := make([]int, nOut)
		for k, v := range r.collect {
			for a := nOut - 1; a >= 0; a-- {
				coord[a] = int(k % uint64(r.outDims[a]))
				k /= uint64(r.outDims[a])
			}
			out.Append(coord, v)
		}
		out.Dedup()
		res.Out = out
	}
	return res, nil
}

// refState tracks one RHS tensor occurrence during the walk.
type refState struct {
	ref einsum.Ref
	tt  *tiling.TiledTensor
	// axisOfVar[d] is the tensor axis bound by loop depth d, or -1.
	axisOfVar []int
	// levelAtDepth[d] is this tensor's outer-CSF level entered at loop
	// depth d, or -1 when depth d does not bind one of its indices.
	levelAtDepth []int
	fetchDepth   int
	// entries caches decoded inner-coordinate lists per tile.
	entries map[*tiling.Tile]*entryList
}

type entryList struct {
	crds [][]int32 // per tensor axis
	vals []float64
}

type runner struct {
	e     *einsum.Expr
	refs  []*refState
	prods [][]int // summands as indices into refs
	depth int     // number of loop levels

	outDepth    int   // loop depth after which the output is written
	outAxisVar  []int // per loop depth: output axis bound, or -1
	outTileDims []int // tile size per output axis
	outDims     []int // full size per output axis
	outLevels   []int // output axes sorted by dataflow position

	traffic Traffic
	opts    Options

	// Per-depth loop state.
	bound []int32 // bound outer coordinate per depth

	outAcc  map[uint64]float64 // output accumulator within outDepth scope
	collect map[uint64]float64 // global output accumulator (optional)

	// topOnly restricts the outermost loop to one coordinate value
	// (parallel partitioning into per-tile work units; -1 = no
	// restriction).
	topOnly int32

	// ctx, when non-nil, is consulted once per outermost coordinate;
	// the first observed error is latched in ctxErr and stops the walk.
	ctx    context.Context
	ctxErr error
}

func newRunner(e *einsum.Expr, tensors map[string]*tiling.TiledTensor, opts *Options) (*runner, error) {
	inputs := e.Inputs()
	r := &runner{
		e:       e,
		depth:   len(e.Order),
		bound:   make([]int32, len(e.Order)),
		topOnly: -1,
	}
	if opts != nil {
		r.opts = *opts
	}
	// Negative buffer knobs would silently flip the overflow arithmetic
	// (both here and in the compiled engine, which predecodes the same
	// per-fetch cost) — reject them loudly.
	if r.opts.InputBufferWords < 0 {
		return nil, fmt.Errorf("exec: InputBufferWords must be >= 0, got %d", r.opts.InputBufferWords)
	}
	if r.opts.OverflowExtra < 0 {
		return nil, fmt.Errorf("exec: OverflowExtra must be >= 0, got %v", r.opts.OverflowExtra)
	}
	if r.opts.OutputBufferWords < 0 {
		return nil, fmt.Errorf("exec: OutputBufferWords must be >= 0, got %d", r.opts.OutputBufferWords)
	}

	varTile := make(map[string]int) // tile size per index var
	varDim := make(map[string]int)  // full size per index var
	for _, ref := range inputs {
		tt := tensors[ref.Name]
		if tt == nil {
			return nil, fmt.Errorf("exec: missing tiled tensor %q", ref.Name)
		}
		if len(ref.Indices) != len(tt.Dims) {
			return nil, fmt.Errorf("exec: %s has %d axes, tensor has %d", ref, len(ref.Indices), len(tt.Dims))
		}
		wantOrder := e.LevelOrder(ref)
		for l := range wantOrder {
			if tt.Order[l] != wantOrder[l] {
				return nil, fmt.Errorf("exec: %s tiled with level order %v, dataflow requires %v",
					ref, tt.Order, wantOrder)
			}
		}
		st := &refState{
			ref:          ref,
			tt:           tt,
			axisOfVar:    make([]int, len(e.Order)),
			levelAtDepth: make([]int, len(e.Order)),
			fetchDepth:   e.FetchLevel(ref),
			entries:      make(map[*tiling.Tile]*entryList),
		}
		for d := range e.Order {
			st.axisOfVar[d] = -1
			st.levelAtDepth[d] = -1
		}
		for a, ix := range ref.Indices {
			d := e.OrderPos(ix)
			st.axisOfVar[d] = a
			if prev, ok := varTile[ix]; ok && prev != tt.TileDims[a] {
				return nil, fmt.Errorf("exec: index %q tiled as %d in %s but %d elsewhere",
					ix, tt.TileDims[a], ref, prev)
			}
			varTile[ix] = tt.TileDims[a]
			if prev, ok := varDim[ix]; ok && prev != tt.Dims[a] {
				return nil, fmt.Errorf("exec: index %q sized %d in %s but %d elsewhere",
					ix, tt.Dims[a], ref, prev)
			}
			varDim[ix] = tt.Dims[a]
		}
		// Level entered per depth: the tensor's levels in order.
		for l, a := range tt.Order {
			d := e.OrderPos(ref.Indices[a])
			st.levelAtDepth[d] = l
		}
		r.refs = append(r.refs, st)
	}

	// Summands in terms of occurrence indices.
	r.prods = e.ProductsIdx()

	// Output bookkeeping.
	r.outDepth = e.FetchLevel(e.Out)
	r.outAxisVar = make([]int, len(e.Order))
	for d := range r.outAxisVar {
		r.outAxisVar[d] = -1
	}
	r.outTileDims = make([]int, len(e.Out.Indices))
	r.outDims = make([]int, len(e.Out.Indices))
	for a, ix := range e.Out.Indices {
		d := e.OrderPos(ix)
		r.outAxisVar[d] = a
		t, ok := varTile[ix]
		if !ok {
			return nil, fmt.Errorf("exec: output index %q not bound by any input", ix)
		}
		r.outTileDims[a] = t
		r.outDims[a] = varDim[ix]
	}
	r.outLevels = e.LevelOrder(e.Out)

	r.traffic.Input = make(map[string]int64)
	if r.opts.CollectOutput {
		r.collect = make(map[uint64]float64)
	}
	return r, nil
}

// runCtx executes the outer loop nest serially. cursors[i] is the
// outer-CSF node position of ref i at its last bound level (-1 = ref
// dead, 0 initial). The context is consulted once per outermost
// coordinate value; the first observed error aborts the walk and is
// returned.
func (r *runner) runCtx(ctx context.Context) error {
	r.ctx = ctx
	r.walk(0, r.rootCursors())
	r.ctx = nil
	return r.ctxErr
}

// runOne executes the loop nest restricted to one outermost coordinate
// value — the per-tile work unit of the pool-scheduled fallback.
func (r *runner) runOne(v int32) {
	r.topOnly = v
	r.walk(0, r.rootCursors())
	r.topOnly = -1
}

// rootCursors returns the walk's initial cursors: 0 per ref, or -1
// (dead) for an empty tensor, whose outer CSF has no root fiber to
// descend — it kills every summand it belongs to.
func (r *runner) rootCursors() []int32 {
	cursors := make([]int32, len(r.refs))
	for ri, st := range r.refs {
		if st.tt.OuterCSF.NNZ() == 0 {
			cursors[ri] = -1
		}
	}
	return cursors
}

// clone returns a fresh runner sharing this runner's immutable metadata
// (expression analysis, tiled tensors, options) with private mutable
// state — the per-worker scratch of the pool-scheduled fallback.
func (r *runner) clone() *runner {
	sub := &runner{
		e:           r.e,
		prods:       r.prods,
		depth:       r.depth,
		outDepth:    r.outDepth,
		outAxisVar:  r.outAxisVar,
		outTileDims: r.outTileDims,
		outDims:     r.outDims,
		outLevels:   r.outLevels,
		opts:        r.opts,
		bound:       make([]int32, r.depth),
		topOnly:     -1,
	}
	for _, st := range r.refs {
		sub.refs = append(sub.refs, &refState{
			ref:          st.ref,
			tt:           st.tt,
			axisOfVar:    st.axisOfVar,
			levelAtDepth: st.levelAtDepth,
			fetchDepth:   st.fetchDepth,
			entries:      make(map[*tiling.Tile]*entryList),
		})
	}
	sub.traffic.Input = make(map[string]int64)
	if r.collect != nil {
		sub.collect = make(map[uint64]float64)
	}
	return sub
}

// mergeFrom folds a worker runner's traffic into this one. Every
// counter is an exact integer sum, so the merge is identical under any
// partition of the outermost loop; collected float sums only merge when
// workers own disjoint output keys (enforced by workersFor).
func (r *runner) mergeFrom(sub *runner) {
	for name, words := range sub.traffic.Input {
		r.traffic.Input[name] += words
	}
	r.traffic.Output += sub.traffic.Output
	r.traffic.OutputWrites += sub.traffic.OutputWrites
	r.traffic.TileIterations += sub.traffic.TileIterations
	r.traffic.MACs += sub.traffic.MACs
	r.traffic.OutputNNZ += sub.traffic.OutputNNZ
	r.traffic.InputFetches += sub.traffic.InputFetches
	r.traffic.OverflowFetches += sub.traffic.OverflowFetches
	r.traffic.OutputOverflows += sub.traffic.OutputOverflows
	if r.collect != nil {
		for k, v := range sub.collect {
			r.collect[k] += v
		}
	}
}

// topValues enumerates the outermost loop's candidate coordinate values
// exactly as walk(0) would: the union over summands of the intersection
// of root-level coordinates of each summand's refs, sorted ascending.
func (r *runner) topValues() []int32 {
	values := make(map[int32]bool)
	root := r.rootCursors()
	for _, prod := range r.prods {
		var sets [][]int32
		for _, ri := range prod {
			st := r.refs[ri]
			if root[ri] < 0 {
				sets = nil
				break
			}
			if st.levelAtDepth[0] < 0 {
				continue
			}
			s, e := st.tt.OuterCSF.Children(0, 0)
			sets = append(sets, st.tt.OuterCSF.Crd[0][s:e])
		}
		if len(sets) == 0 {
			continue
		}
		for _, v := range intersectSorted(sets) {
			values[v] = true
		}
	}
	ordered := make([]int32, 0, len(values))
	for v := range values {
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a] < ordered[b] })
	return ordered
}

// walk iterates loop depth d; returns whether any work happened below.
func (r *runner) walk(d int, cursors []int32) bool {
	if d == r.depth {
		return r.leaf(cursors)
	}

	// Collect candidate coordinate values per summand: the intersection
	// of the children of each alive active ref; union across summands.
	type childRange struct {
		ri         int
		start, end int32
	}
	var active []childRange

	summandAlive := func(prod []int) bool {
		for _, ri := range prod {
			if cursors[ri] < 0 {
				return false
			}
		}
		return true
	}

	// Gather active refs (those binding an index at this depth).
	for ri, st := range r.refs {
		l := st.levelAtDepth[d]
		if l < 0 || cursors[ri] < 0 {
			continue
		}
		node := 0
		if l > 0 {
			node = int(cursors[ri])
		}
		s, e := st.tt.OuterCSF.Children(l, node)
		//d2t2:ignore coordwidth s and e are read back out of the int32 Seg array by Children; the round-trip cannot widen past int32, and this is the innermost measurement loop
		active = append(active, childRange{ri, int32(s), int32(e)})
	}

	// For each alive summand, intersect the candidate coordinates of its
	// active refs; collect the union.
	values := make(map[int32]bool)
	for _, prod := range r.prods {
		if !summandAlive(prod) {
			continue
		}
		var sets [][]int32
		for _, ar := range active {
			if !contains(prod, ar.ri) {
				continue
			}
			st := r.refs[ar.ri]
			l := st.levelAtDepth[d]
			sets = append(sets, st.tt.OuterCSF.Crd[l][ar.start:ar.end])
		}
		if len(sets) == 0 {
			// No ref of this summand binds this index: the loop still
			// iterates the full outer dimension for the output; but only
			// positions where some input exists produce work, and this
			// summand does not constrain them. With every index bound by
			// at least one input (validated), this cannot happen.
			continue
		}
		for _, v := range intersectSorted(sets) {
			values[v] = true
		}
	}
	if len(values) == 0 {
		return false
	}
	ordered := make([]int32, 0, len(values))
	for v := range values {
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a] < ordered[b] })

	work := false
	next := make([]int32, len(cursors))
	for _, v := range ordered {
		if d == 0 {
			if r.topOnly >= 0 && v != r.topOnly {
				continue
			}
			if r.ctx != nil {
				if err := r.ctx.Err(); err != nil {
					r.ctxErr = err
					return work
				}
			}
		}
		copy(next, cursors)
		// Advance or kill each active ref.
		for _, ar := range active {
			st := r.refs[ar.ri]
			l := st.levelAtDepth[d]
			pos := searchCrd(st.tt.OuterCSF.Crd[l], ar.start, ar.end, v)
			if pos < 0 {
				next[ar.ri] = -1
			} else {
				next[ar.ri] = pos
			}
		}
		// A dead ref kills its summands; if no summand remains, skip.
		alive := false
		for _, prod := range r.prods {
			ok := true
			for _, ri := range prod {
				if next[ri] < 0 {
					ok = false
					break
				}
			}
			if ok {
				alive = true
				break
			}
		}
		if !alive {
			continue
		}
		r.bound[d] = v

		armedOut := false
		if d == r.outDepth {
			r.outAcc = make(map[uint64]float64)
			armedOut = true
		}
		sub := r.walk(d+1, next)
		if sub {
			work = true
			// Fetch every ref whose fetch space completes at this depth.
			for _, st := range r.refs {
				if st.fetchDepth != d {
					continue
				}
				if tile := r.tileOf(st); tile != nil {
					r.traffic.InputFetches++
					cost := int64(tile.Footprint)
					if r.opts.ValuesOnly {
						cost = int64(tile.NNZ())
					} else if b := r.opts.InputBufferWords; b > 0 && tile.Footprint > b {
						extra := r.opts.OverflowExtra
						if extra == 0 {
							extra = 1
						}
						cost += int64(extra * float64(tile.Footprint-b))
						r.traffic.OverflowFetches++
					}
					r.traffic.Input[st.ref.Name] += cost
				}
			}
		}
		if armedOut {
			r.flushOutput()
			r.outAcc = nil
		}
	}
	return work
}

// leaf handles a fully bound outer iteration: counts the tile iteration,
// performs the inner-tile computation for MACs and output size.
func (r *runner) leaf(cursors []int32) bool {
	work := false
	for _, prod := range r.prods {
		alive := true
		for _, ri := range prod {
			if cursors[ri] < 0 {
				alive = false
				break
			}
		}
		if !alive {
			continue
		}
		work = true
		r.joinProduct(prod)
	}
	if work {
		r.traffic.TileIterations++
	}
	return work
}

// tileOf returns the tile a ref currently points at, from the bound
// outer coordinates of its own axes.
func (r *runner) tileOf(st *refState) *tiling.Tile {
	outer := make([]int, len(st.ref.Indices))
	for a, ix := range st.ref.Indices {
		d := r.e.OrderPos(ix)
		outer[a] = int(r.bound[d])
	}
	return st.tt.Lookup(outer...)
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// intersectSorted intersects sorted coordinate slices.
func intersectSorted(sets [][]int32) []int32 {
	if len(sets) == 0 {
		return nil
	}
	cur := sets[0]
	for _, s := range sets[1:] {
		var out []int32
		i, j := 0, 0
		for i < len(cur) && j < len(s) {
			switch {
			case cur[i] < s[j]:
				i++
			case cur[i] > s[j]:
				j++
			default:
				out = append(out, cur[i])
				i++
				j++
			}
		}
		cur = out
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

// searchCrd binary-searches crd[start:end) for v, returning its absolute
// position or -1.
func searchCrd(crd []int32, start, end, v int32) int32 {
	lo, hi := start, end
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case crd[mid] < v:
			lo = mid + 1
		case crd[mid] > v:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}
