package exec

import (
	"context"
	"math/bits"

	"d2t2/internal/checked"
	"d2t2/internal/einsum"
	"d2t2/internal/formats"
	"d2t2/internal/par"
)

// The engine's shape envelope. Kernels outside it fall back to the
// generic walker: the caps bound the join head table and the
// fixed-size coordinate arrays the compiled loop nest uses. Output-tile
// area is not capped: a tile of up to maxDenseCells cells counts its
// distinct cells with one bit per cell, a larger one with a sorted list
// of cell keys whose memory scales with the scope's partial products.
const (
	maxEngineRefs  = 8       // tensor occurrences per product
	maxEngineDepth = 6       // loop levels
	maxEngineOut   = 4       // output rank
	maxEngineHeads = 1 << 16 // join head-table entries per step
	maxDenseCells  = 1 << 24 // output-tile cells counted with dense bits
)

// bindRef names one outer-CSF level a loop depth advances.
type bindRef struct {
	ri    int32 // index into runner.refs / enginePlan.refs
	level int32 // outer-CSF level entered at this depth
}

// engineRef is one tensor occurrence, predecoded: every tile's entry
// list, fetch cost and overflow flag indexed by the tile's leaf
// position in the outer CSF — so the inner loops never touch a map.
type engineRef struct {
	name string
	csf  *formats.CSF
	ents []entryList
	cost []int64
	over []bool
}

// joinStep is one precomputed hash-join step of the leaf computation:
// probe the accumulated relation against one ref's entries on the
// shared index variables.
type joinStep struct {
	ri        int32   // ref joined in at this step
	sharedRel []int32 // tuple positions of the shared vars in the relation
	sharedAx  []int32 // the same vars as ref axes (ref-axis order)
	shDims    []int32 // tile dim per shared var — mixed-radix key digits
	newAxes   []int32 // ref axes introducing new vars
	heads     int     // head-table size = product of shDims
	strideOut int     // relation stride after this step
}

// outTerm is one output axis's contribution to a cell key: the
// tile-local coordinate at src (an entry-list axis or a relation tuple
// position) times the axis's stride.
type outTerm struct {
	src    int32
	stride uint64
}

// enginePlan is a kernel compiled for the measurement engine: the loop
// nest (binds/fetch per depth), the leaf join plan, the output cell
// keys and counting layout, and the predecoded operands. It is immutable
// after compileEngine returns; every worker runs it through a private
// engineState.
type enginePlan struct {
	host  *runner
	depth int
	nOut  int

	binds [][]bindRef // per depth: levels advanced
	fetch [][]int32   // per depth: refs whose fetch space completes here

	outDepth    int
	outOrderPos []int32 // loop depth binding each output axis
	outTileDims []int32
	outDims     []int64

	// Output cells are keyed in level order: a cell's key is
	// Σ c[a]·outStride[a] over its tile-local coordinates, and its
	// level-l prefix is key / lvSuffix[l]. Tiles of at most
	// maxDenseCells cells mark a cell at bit key and a level-l prefix at
	// bit bitOff[l] + prefix (bitWords words in all); larger tiles
	// take the list path.
	outStride []uint64
	lvSuffix  []uint64
	bitOff    []uint64
	bitWords  int
	list      bool

	refs []engineRef

	// Outermost loop: candidate coordinate values and, per binds[0]
	// entry, the outer-CSF position of each value — the pool's work
	// units, claimed by index.
	topVals []int32
	topPos  [][]int32

	// Fused two-ref join (the SpMSpM/TTM/SDDMM-after-sampling leaf
	// shape): probe ref join2.ri, chained on its shared axes, with ri0's
	// entries keyed on sharedA0. key0 and key1 are each side's share of
	// the output cell key.
	two        bool
	ri0        int32
	sharedA0   []int32
	join2      joinStep
	key0, key1 []outTerm

	// countInLeaf: leaf2 counts cells in its own loop, one bit test and
	// set per product — the plan collects nothing, takes the dense path,
	// and every prefix level comes from ri0 alone, so each ri0 entry
	// marks its row (level-(nOut-2) prefix, keyed by rowKey) once.
	// bandAx, when non-negative, is ri0's level-0 axis, which is also
	// the output's level-0 axis: ri0's tile entries ascend along it, so
	// a band of output rows is a contiguous run of entries (runBands).
	countInLeaf bool
	rowKey      []outTerm
	bandAx      int32

	// General chain (1 ref, or ≥3 refs as in MTTKRP/SDDMM): middle
	// steps materialize the relation, the last step is fused with the
	// output reduction. keyTup and keyProbe are the relation's and the
	// last ref's shares of the output cell key.
	mids     []joinStep
	last     *joinStep
	keyTup   []outTerm
	keyProbe []outTerm

	maxHeads int // scratch sizing: largest head table across steps
	maxEnts  int // scratch sizing: largest entry list across tiles
}

// compileEngine builds the specialized engine for a runner's kernel, or
// returns nil when the kernel is outside the engine's envelope (multiple
// summands, ForceGeneric, or scratch caps exceeded) or the predecode
// failed (ctx done, or a panic) — the caller then returns ctx's error
// or falls back to the generic walker.
func compileEngine(ctx context.Context, r *runner) *enginePlan {
	o := &r.opts
	if o.ForceGeneric {
		return nil
	}
	if len(r.prods) != 1 || len(r.refs) > maxEngineRefs {
		return nil
	}
	if r.depth < 1 || r.depth > maxEngineDepth || r.outDepth < 0 {
		return nil
	}
	nOut := len(r.e.Out.Indices)
	if nOut < 1 || nOut > maxEngineOut {
		return nil
	}
	prod := r.prods[0]
	if len(prod) != len(r.refs) {
		return nil
	}
	seen := make([]bool, len(r.refs))
	for _, ri := range prod {
		if seen[ri] {
			return nil
		}
		seen[ri] = true
	}

	p := &enginePlan{host: r, depth: r.depth, nOut: nOut, outDepth: r.outDepth, bandAx: -1}
	for a := range r.outTileDims {
		p.outTileDims = append(p.outTileDims, checked.Int32(r.outTileDims[a]))
		p.outDims = append(p.outDims, int64(r.outDims[a]))
		p.outOrderPos = append(p.outOrderPos, checked.Int32(r.e.OrderPos(r.e.Out.Indices[a])))
	}
	if !p.compileOutput(r.outLevels) {
		return nil
	}
	for d := 0; d < r.depth; d++ {
		var bs []bindRef
		var fs []int32
		for ri, st := range r.refs {
			if l := st.levelAtDepth[d]; l >= 0 {
				bs = append(bs, bindRef{checked.Int32(ri), checked.Int32(l)})
			}
			if st.fetchDepth == d {
				fs = append(fs, checked.Int32(ri))
			}
		}
		if len(bs) == 0 {
			return nil
		}
		p.binds = append(p.binds, bs)
		p.fetch = append(p.fetch, fs)
	}

	if !p.compileJoin(prod) {
		return nil
	}

	// Each ref's predecode is independent of the others' and keeps its
	// own tile order, so the refs decode concurrently.
	p.refs = make([]engineRef, len(r.refs))
	err := par.ForEachCtx(ctx, max(o.Workers, 1), len(r.refs), func(ri int) error {
		p.refs[ri] = buildEngineRef(r.refs[ri], o)
		return nil
	})
	if err != nil {
		return nil
	}
	for ri := range p.refs {
		for i := range p.refs[ri].ents {
			if n := len(p.refs[ri].ents[i].vals); n > p.maxEnts {
				p.maxEnts = n
			}
		}
	}
	p.compileBands()
	p.compileTop()
	return p
}

// compileOutput lays out the output tile's distinct-cell counting: the
// level-order key strides, and dense bits (cells first, then each
// shorter prefix level) when the area is within maxDenseCells, else the
// list path. It fails only when a key would not fit in 64 bits — the
// walker's and the collected output's keys share that limit.
func (p *enginePlan) compileOutput(levels []int) bool {
	n := p.nOut
	p.outStride = make([]uint64, n)
	p.lvSuffix = make([]uint64, n)
	area := uint64(1)
	for l := n - 1; l >= 0; l-- {
		a := levels[l]
		p.lvSuffix[l] = area
		p.outStride[a] = area
		hi, lo := bits.Mul64(area, uint64(p.outTileDims[a]))
		if hi != 0 {
			return false
		}
		area = lo
	}
	if area > maxDenseCells {
		p.list = true
		return true
	}
	p.bitOff = make([]uint64, n)
	end := area
	for l := n - 2; l >= 0; l-- {
		p.bitOff[l] = end
		end += area / p.lvSuffix[l]
	}
	p.bitWords = int((end + 63) / 64)
	return true
}

// compileBands decides whether leaf2 counts cells in its own loop and
// whether the nest may split the output's level-0 rows across workers
// (see countInLeaf and bandAx).
func (p *enginePlan) compileBands() {
	r := p.host
	if !p.two || p.list || r.collect != nil || p.nOut < 2 {
		return
	}
	ref0 := r.refs[p.ri0]
	width := p.lvSuffix[p.nOut-2]
	var rowKey []outTerm
	for l := 0; l < p.nOut-1; l++ {
		a := r.outLevels[l]
		a0 := axisOf(ref0.ref, r.e.Out.Indices[a])
		if a0 < 0 {
			return
		}
		rowKey = append(rowKey, outTerm{checked.Int32(a0), p.outStride[a] / width})
	}
	p.countInLeaf, p.rowKey = true, rowKey
	if a0 := rowKey[0].src; ref0.tt.Order[0] == int(a0) && ref0.tt.PackedFrom == nil {
		p.bandAx = a0
	}
}

// compileJoin precomputes the leaf join plan over the product's refs in
// occurrence order — the same left-deep order joinProduct uses, so the
// engine emits output terms in the identical sequence (the engine's
// float sums are bit-identical to the walker's because addition order
// matches term for term). Every shared-key radix product must fit the
// head table (maxEngineHeads); the keys themselves are exact.
func (p *enginePlan) compileJoin(prod []int) bool {
	r := p.host
	e := r.e
	ref0 := r.refs[prod[0]].ref
	p.ri0 = checked.Int32(prod[0])

	if len(prod) == 2 {
		p.two = true
		st1 := r.refs[prod[1]]
		p.join2 = joinStep{ri: checked.Int32(prod[1]), heads: 1}
		for a1, ix := range st1.ref.Indices {
			a0 := axisOf(ref0, ix)
			if a0 < 0 {
				continue
			}
			p.sharedA0 = append(p.sharedA0, checked.Int32(a0))
			p.join2.sharedAx = append(p.join2.sharedAx, checked.Int32(a1))
			dim := st1.tt.TileDims[a1]
			p.join2.shDims = append(p.join2.shDims, checked.Int32(dim))
			p.join2.heads *= dim
			if p.join2.heads > maxEngineHeads {
				return false
			}
		}
		p.maxHeads = p.join2.heads
		for a, ix := range e.Out.Indices {
			if a0 := axisOf(ref0, ix); a0 >= 0 {
				p.key0 = append(p.key0, outTerm{checked.Int32(a0), p.outStride[a]})
			} else if a1 := axisOf(st1.ref, ix); a1 >= 0 {
				p.key1 = append(p.key1, outTerm{checked.Int32(a1), p.outStride[a]})
			} else {
				return false
			}
		}
		return true
	}

	vars := append([]string(nil), ref0.Indices...)
	nsteps := len(prod) - 1
	for s := 0; s < nsteps; s++ {
		ri := prod[s+1]
		st := r.refs[ri]
		step := joinStep{ri: checked.Int32(ri)}
		heads := 1
		for a, ix := range st.ref.Indices {
			if pos := indexOfVar(vars, ix); pos >= 0 {
				step.sharedRel = append(step.sharedRel, checked.Int32(pos))
				step.sharedAx = append(step.sharedAx, checked.Int32(a))
				dim := st.tt.TileDims[a]
				step.shDims = append(step.shDims, checked.Int32(dim))
				heads *= dim
				if heads > maxEngineHeads {
					return false
				}
			} else {
				step.newAxes = append(step.newAxes, checked.Int32(a))
			}
		}
		step.heads = heads
		if heads > p.maxHeads {
			p.maxHeads = heads
		}
		if s == nsteps-1 {
			last := step
			p.last = &last
			for oa, ix := range e.Out.Indices {
				if pos := indexOfVar(vars, ix); pos >= 0 {
					p.keyTup = append(p.keyTup, outTerm{checked.Int32(pos), p.outStride[oa]})
				} else if a := axisOf(st.ref, ix); a >= 0 {
					p.keyProbe = append(p.keyProbe, outTerm{checked.Int32(a), p.outStride[oa]})
				} else {
					return false
				}
			}
			return true
		}
		for _, a := range step.newAxes {
			vars = append(vars, st.ref.Indices[a])
		}
		step.strideOut = len(vars)
		p.mids = append(p.mids, step)
	}

	// Single-ref product: emit straight from ref0 entries.
	for oa, ix := range e.Out.Indices {
		pos := indexOfVar(vars, ix)
		if pos < 0 {
			return false
		}
		p.keyTup = append(p.keyTup, outTerm{checked.Int32(pos), p.outStride[oa]})
	}
	return true
}

// buildEngineRef predecodes every tile of one occurrence, keyed by the
// tile's leaf position in the outer CSF, and precomputes its fetch cost
// under the options (footprint, ValuesOnly nnz, or overbooked-buffer
// overflow) — the same arithmetic walk performs per fetch.
func buildEngineRef(st *refState, o *Options) engineRef {
	csf := st.tt.OuterCSF
	nl := csf.Levels()
	nleaf := csf.NNZ()
	er := engineRef{
		name: st.ref.Name,
		csf:  csf,
		ents: make([]entryList, nleaf),
		cost: make([]int64, nleaf),
		over: make([]bool, nleaf),
	}
	if nleaf == 0 {
		return er
	}
	outer := make([]int, nl)
	var rec func(level, node int)
	rec = func(level, node int) {
		s, t := csf.Children(level, node)
		for pp := s; pp < t; pp++ {
			outer[csf.Order[level]] = int(csf.Crd[level][pp])
			if level < nl-1 {
				rec(level+1, pp)
				continue
			}
			tile := st.tt.Lookup(outer...)
			cost := int64(tile.Footprint)
			if o.ValuesOnly {
				cost = int64(tile.NNZ())
			} else if b := o.InputBufferWords; b > 0 && tile.Footprint > b {
				extra := o.OverflowExtra
				if extra == 0 {
					extra = 1
				}
				cost += int64(extra * float64(tile.Footprint-b))
				er.over[pp] = true
			}
			er.cost[pp] = cost
			er.ents[pp] = *decodeEntries(st.tt, tile)
		}
	}
	rec(0, 0)
	return er
}

// compileTop enumerates the outermost loop's work units: the candidate
// coordinate values (intersection of every depth-0 ref's root
// coordinates) and, per binding ref, each value's outer-CSF position —
// precomputed once so pool workers claim values without re-probing.
func (p *enginePlan) compileTop() {
	for _, er := range p.refs {
		if er.csf.NNZ() == 0 {
			return // an empty operand empties the product
		}
	}
	b0 := p.binds[0]
	type rootRange struct {
		lo, hi int32
		crd    []int32
	}
	rs := make([]rootRange, len(b0))
	for i, b := range b0 {
		csf := p.refs[b.ri].csf
		s, t := csf.Children(int(b.level), 0)
		//d2t2:ignore coordwidth s and t are read back out of the int32 Seg array by Children; the round-trip cannot widen past int32
		rs[i] = rootRange{checked.Int32(s), checked.Int32(t), csf.Crd[b.level]}
	}
	pos := make([][]int32, len(b0))
	tmp := make([]int32, len(b0))
	r0 := rs[0]
	for x := r0.lo; x < r0.hi; x++ {
		v := r0.crd[x]
		tmp[0] = x
		ok := true
		for i := 1; i < len(rs); i++ {
			bp := searchCrd(rs[i].crd, rs[i].lo, rs[i].hi, v)
			if bp < 0 {
				ok = false
				break
			}
			tmp[i] = bp
		}
		if !ok {
			continue
		}
		p.topVals = append(p.topVals, v)
		for i := range rs {
			pos[i] = append(pos[i], tmp[i])
		}
	}
	p.topPos = pos
}

func axisOf(ref einsum.Ref, ix string) int {
	for a, v := range ref.Indices {
		if v == ix {
			return a
		}
	}
	return -1
}

func indexOfVar(vars []string, ix string) int {
	for i, v := range vars {
		if v == ix {
			return i
		}
	}
	return -1
}
