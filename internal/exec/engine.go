package exec

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"d2t2/internal/par"
	"d2t2/internal/radix"
)

// engineState is one worker's mutable state for a compiled plan: loop
// cursors, the output tile's distinct-cell counts, private traffic
// counters and a pooled engineScratch. Every buffer is reused across
// every tile the worker claims — the steady-state inner loops allocate
// nothing.
type engineState struct {
	p  *enginePlan
	sc *engineScratch

	cursors  [][]int32 // per depth, per ref: outer-CSF position
	rlo, rhi [][]int32 // per depth, per binds[d] entry: child range
	bound    []int32   // bound outer coordinate per depth

	inputWords []int64 // per ref occurrence
	traffic    Traffic // integer counters only (Input map stays nil)
	collect    map[uint64]float64

	// The output tile is a set of distinct cells (an entry whose terms
	// sum to zero still counts, exactly like the walker's map):
	// fibers[l] counts the distinct level-order prefixes of length l+1
	// emitted in the current scope, so fibers[nOut-1] is its nnz.
	fibers [maxEngineOut]int
}

// engineScratch holds a worker's buffers whose size depends on the data
// rather than the plan's rank: the output stamps and their epoch, the
// coordinate list, the join tables and the relation buffers. It is
// reused across MeasureCtx calls (freeScratch), so a steady-state call
// allocates nothing proportional to the output tile's area.
type engineScratch struct {
	// Dense path: one stamp per output cell and per level-order prefix,
	// laid out by enginePlan.stampOff. Stamps equal to epoch are live
	// in the current scope; bumping the epoch clears them all, and a
	// full clear happens once per 65535 scopes, when it wraps. Two
	// bytes per cell keep the pooled stamps small.
	stamp []uint16
	epoch uint16

	// List path: the level-order keys emitted in the current scope, and
	// the sort's scratch.
	keys, sortBuf []uint64

	// Hash-join scratch: chained buckets with heads storing position+1
	// (0 = empty), chains built in reverse so iteration ascends —
	// matching the walker's append-order buckets term for term — and
	// each chained entry's share of the output cell key.
	heads   []int32
	nextEnt []int32
	keyEnt  []uint64

	// Relation ping-pong buffers for materialized middle join steps.
	tupBuf [2][]int32
	valBuf [2][]float64
}

// freeScratch holds released scratch for the next engine state. Unlike
// a sync.Pool it survives garbage collection, so a steady stream of
// measurements allocates no area-sized stamps. It keeps at most two
// scratches per GOMAXPROCS: the workers of two concurrent measurements.
var freeScratch struct {
	sync.Mutex
	list []*engineScratch
}

func getScratch() *engineScratch {
	freeScratch.Lock()
	defer freeScratch.Unlock()
	n := len(freeScratch.list)
	if n == 0 {
		return new(engineScratch)
	}
	sc := freeScratch.list[n-1]
	freeScratch.list = freeScratch.list[:n-1]
	return sc
}

func newEngineState(p *enginePlan) *engineState {
	nrefs := len(p.refs)
	s := &engineState{p: p}
	s.cursors = make([][]int32, p.depth+1)
	for d := range s.cursors {
		s.cursors[d] = make([]int32, nrefs)
	}
	s.rlo = make([][]int32, p.depth)
	s.rhi = make([][]int32, p.depth)
	for d := 0; d < p.depth; d++ {
		s.rlo[d] = make([]int32, len(p.binds[d]))
		s.rhi[d] = make([]int32, len(p.binds[d]))
	}
	s.bound = make([]int32, p.depth)
	s.inputWords = make([]int64, nrefs)
	if p.host.collect != nil {
		s.collect = make(map[uint64]float64)
	}

	sc := getScratch()
	sc.stamp = grow(sc.stamp, p.stampLen)
	sc.heads = grow(sc.heads, p.maxHeads)
	sc.nextEnt = grow(sc.nextEnt, p.maxEnts)
	sc.keyEnt = grow(sc.keyEnt, p.maxEnts)
	s.sc = sc
	return s
}

// grow returns b resliced to n, reallocating (zeroed) only when its
// capacity is short. Stale contents are harmless: stamps are older than
// the next epoch, and join tables are rebuilt before every read.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// release returns the state's scratch to freeScratch.
func (s *engineState) release() {
	freeScratch.Lock()
	if len(freeScratch.list) < 2*runtime.GOMAXPROCS(0) {
		freeScratch.list = append(freeScratch.list, s.sc)
	}
	freeScratch.Unlock()
	s.sc = nil
}

// run executes the compiled plan: serially with a per-work-unit context
// check, or over the par pool with one engineState per worker (claimed
// by shared counter for load balance, registered at construction for
// the post-join merge). Traffic merges are exact integer sums; with
// CollectOutput the workers' key ranges are disjoint (workersFor), so
// the collected output is identical at any worker count.
func (p *enginePlan) run(ctx context.Context, workers int) error {
	n := len(p.topVals)
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 1 {
		s := newEngineState(p)
		defer s.release()
		for vi := 0; vi < n; vi++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.runTop(vi)
		}
		s.mergeInto(p.host)
		return nil
	}

	var mu sync.Mutex
	var states []*engineState
	newScratch := func() *engineState {
		s := newEngineState(p)
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	}
	err := par.ForEachScratchCtx(ctx, workers, n, newScratch, func(vi int, s *engineState) error {
		s.runTop(vi)
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	for _, s := range states {
		if err == nil {
			s.mergeInto(p.host)
		}
		s.release()
	}
	return err
}

// runTop executes one outermost work unit: coordinate value topVals[vi],
// with every depth-0 binding ref advanced to its precomputed position.
func (s *engineState) runTop(vi int) {
	p := s.p
	next := s.cursors[1]
	for i := range next {
		next[i] = 0
	}
	for i, b := range p.binds[0] {
		next[b.ri] = p.topPos[i][vi]
	}
	s.bound[0] = p.topVals[vi]
	armed := p.outDepth == 0
	if armed {
		s.beginTile()
	}
	if s.nest(1) {
		s.fetchAt(0)
	}
	if armed {
		s.flushTile()
	}
}

// nest iterates loop depth d: the binding ref with the smallest child
// range drives, the others are probed by binary search (the same
// intersection the walker computes, without materializing it). Returns
// whether any work happened below — the walker's fetch gate.
func (s *engineState) nest(d int) bool {
	p := s.p
	if d == p.depth {
		s.traffic.TileIterations++
		if p.two {
			s.leaf2()
		} else {
			s.leafN()
		}
		return true
	}
	binds := p.binds[d]
	cur := s.cursors[d]
	next := s.cursors[d+1]
	rlo, rhi := s.rlo[d], s.rhi[d]
	drv := 0
	for i, b := range binds {
		node := 0
		if b.level > 0 {
			node = int(cur[b.ri])
		}
		lo, hi := p.refs[b.ri].csf.Children(int(b.level), node)
		//d2t2:ignore coordwidth lo and hi are read back out of the int32 Seg array by Children; the round-trip cannot widen past int32, and this is the innermost measurement loop
		rlo[i], rhi[i] = int32(lo), int32(hi)
		if rhi[i]-rlo[i] < rhi[drv]-rlo[drv] {
			drv = i
		}
	}
	db := binds[drv]
	dcrd := p.refs[db.ri].csf.Crd[db.level]
	copy(next, cur)
	armed := d == p.outDepth
	work := false
	for x := rlo[drv]; x < rhi[drv]; x++ {
		v := dcrd[x]
		next[db.ri] = x
		ok := true
		for i, b := range binds {
			if i == drv {
				continue
			}
			bp := searchCrd(p.refs[b.ri].csf.Crd[b.level], rlo[i], rhi[i], v)
			if bp < 0 {
				ok = false
				break
			}
			next[b.ri] = bp
		}
		if !ok {
			continue
		}
		s.bound[d] = v
		if armed {
			s.beginTile()
		}
		if s.nest(d + 1) {
			work = true
			s.fetchAt(d)
		}
		if armed {
			s.flushTile()
		}
	}
	return work
}

// fetchAt charges every ref whose fetch space completes at depth d: its
// precomputed tile cost at the outer-CSF leaf position the cursors
// point at.
func (s *engineState) fetchAt(d int) {
	p := s.p
	next := s.cursors[d+1]
	for _, ri := range p.fetch[d] {
		er := &p.refs[ri]
		lp := next[ri]
		s.inputWords[ri] += er.cost[lp]
		s.traffic.InputFetches++
		if er.over[lp] {
			s.traffic.OverflowFetches++
		}
	}
}

// beginTile opens a fresh output-tile scope: zero the counts, empty the
// key list, and bump the epoch instead of clearing the stamps. The
// wraparound clear covers the stamps' whole capacity, so stamps a
// larger plan left beyond the current length cannot alias a later
// epoch.
func (s *engineState) beginTile() {
	s.fibers = [maxEngineOut]int{}
	sc := s.sc
	sc.keys = sc.keys[:0]
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp[:cap(sc.stamp)])
		sc.epoch = 1
	}
}

// emit records one output term in the cell with level-order key k — the
// engine's replacement for the walker's outAcc map write — and, when
// collecting, adds the term to the global output at the identical
// chronological position, so collected float sums are bit-identical.
// Only the set of cells matters to traffic: the dense path counts a
// cell on its first touch in the scope, the list path appends its key
// for flushTile to count (compacting the list before it would grow).
func (s *engineState) emit(v float64, k uint64) {
	p := s.p
	sc := s.sc
	if p.list {
		if n := len(sc.keys); n == cap(sc.keys) && n >= compactFloor {
			s.compactKeys()
		}
		sc.keys = append(sc.keys, k)
	} else if sc.stamp[k] != sc.epoch {
		s.touch(k)
	}
	if s.collect != nil {
		var gk uint64
		for a := 0; a < p.nOut; a++ {
			td := uint64(p.outTileDims[a])
			g := uint64(s.bound[p.outOrderPos[a]])*td + k/p.outStride[a]%td
			gk = gk*uint64(p.outDims[a]) + g
		}
		s.collect[gk] += v
	}
}

// touch stamps a cell's first touch in the scope, then each shorter
// level-order prefix, counting every newly stamped one and stopping at
// the first already stamped (every shorter prefix then is too).
func (s *engineState) touch(k uint64) {
	p := s.p
	st, ep := s.sc.stamp, s.sc.epoch
	st[k] = ep
	s.fibers[p.nOut-1]++
	for l := p.nOut - 2; l >= 0; l-- {
		i := p.stampOff[l] + k/p.lvSuffix[l]
		if st[i] == ep {
			return
		}
		st[i] = ep
		s.fibers[l]++
	}
}

// entryKey and tupleKey sum an entry's or a relation tuple's share of
// an output cell key.
func entryKey(e *entryList, t int, terms []outTerm) uint64 {
	var k uint64
	for _, o := range terms {
		k += uint64(e.crds[o.src][t]) * o.stride
	}
	return k
}

func tupleKey(base []int32, terms []outTerm) uint64 {
	var k uint64
	for _, o := range terms {
		k += uint64(base[o.src]) * o.stride
	}
	return k
}

// leaf2 is the fused two-operand leaf: chain ri1's tile entries on the
// shared coordinates (exact mixed-radix keys), stream ri0's entries
// through the table, and emit each product directly.
func (s *engineState) leaf2() {
	p := s.p
	cur := s.cursors[p.depth]
	st := &p.join2
	e0 := &p.refs[p.ri0].ents[cur[p.ri0]]
	e1 := &p.refs[st.ri].ents[cur[st.ri]]
	s.chain(st, e1, p.key1)
	heads, next, key1 := s.sc.heads[:st.heads], s.sc.nextEnt, s.sc.keyEnt
	n0 := len(e0.vals)
	for t := 0; t < n0; t++ {
		k := int32(0)
		for x, a0 := range p.sharedA0 {
			k = k*st.shDims[x] + e0.crds[a0][t]
		}
		q := heads[k]
		if q == 0 {
			continue
		}
		vt := e0.vals[t]
		k0 := entryKey(e0, t, p.key0)
		for ; q != 0; q = next[q-1] {
			pi := q - 1
			s.traffic.MACs++
			s.emit(vt*e1.vals[pi], k0+key1[pi])
		}
	}
}

// leafN is the general leaf: materialize ri0's entries as the initial
// relation, run the precomputed middle join steps through the ping-pong
// buffers, then fuse the last step (or, for a single-ref product, emit
// the relation directly). Step order, tuple order and term order match
// joinProduct exactly.
func (s *engineState) leafN() {
	p := s.p
	cur := s.cursors[p.depth]
	e0 := &p.refs[p.ri0].ents[cur[p.ri0]]
	n := len(e0.vals)
	rank0 := len(e0.crds)
	stride := rank0
	if need := n * stride; cap(s.sc.tupBuf[0]) < need {
		s.sc.tupBuf[0] = make([]int32, need+need/2)
	}
	tup := s.sc.tupBuf[0][:n*stride]
	for t := 0; t < n; t++ {
		for a := 0; a < rank0; a++ {
			tup[t*stride+a] = e0.crds[a][t]
		}
	}
	if cap(s.sc.valBuf[0]) < n {
		s.sc.valBuf[0] = make([]float64, n+n/2)
	}
	vals := s.sc.valBuf[0][:n]
	copy(vals, e0.vals)

	buf := 0
	for mi := range p.mids {
		st := &p.mids[mi]
		en := &p.refs[st.ri].ents[cur[st.ri]]
		s.chain(st, en, nil)
		heads, next := s.sc.heads[:st.heads], s.sc.nextEnt
		ob := 1 - buf
		outTup := s.sc.tupBuf[ob][:0]
		outVals := s.sc.valBuf[ob][:0]
		nt := len(vals)
		for t := 0; t < nt; t++ {
			base := tup[t*stride : (t+1)*stride]
			k := int32(0)
			for x, vp := range st.sharedRel {
				k = k*st.shDims[x] + base[vp]
			}
			for q := heads[k]; q != 0; q = next[q-1] {
				pi := int(q - 1)
				outTup = append(outTup, base...)
				for _, a := range st.newAxes {
					outTup = append(outTup, en.crds[a][pi])
				}
				outVals = append(outVals, vals[t]*en.vals[pi])
			}
		}
		s.traffic.MACs += int64(len(outVals))
		s.sc.tupBuf[ob] = outTup
		s.sc.valBuf[ob] = outVals
		tup, vals, stride, buf = outTup, outVals, st.strideOut, ob
		if len(vals) == 0 {
			return
		}
	}

	if p.last == nil {
		nt := len(vals)
		for t := 0; t < nt; t++ {
			s.emit(vals[t], tupleKey(tup[t*stride:(t+1)*stride], p.keyTup))
		}
		return
	}

	st := p.last
	en := &p.refs[st.ri].ents[cur[st.ri]]
	s.chain(st, en, p.keyProbe)
	heads, next, keyProbe := s.sc.heads[:st.heads], s.sc.nextEnt, s.sc.keyEnt
	nt := len(vals)
	for t := 0; t < nt; t++ {
		base := tup[t*stride : (t+1)*stride]
		k := int32(0)
		for x, vp := range st.sharedRel {
			k = k*st.shDims[x] + base[vp]
		}
		q := heads[k]
		if q == 0 {
			continue
		}
		vt := vals[t]
		kt := tupleKey(base, p.keyTup)
		for ; q != 0; q = next[q-1] {
			pi := q - 1
			s.traffic.MACs++
			s.emit(vt*en.vals[pi], kt+keyProbe[pi])
		}
	}
}

// chain rebuilds the bucket chains for one join step's probe entries,
// in reverse so bucket iteration ascends by entry position, and records
// each entry's share of the output cell key under terms (none for the
// middle steps).
func (s *engineState) chain(st *joinStep, en *entryList, terms []outTerm) {
	heads := s.sc.heads[:st.heads]
	clear(heads)
	next, keys := s.sc.nextEnt, s.sc.keyEnt
	for t := len(en.vals) - 1; t >= 0; t-- {
		k := int32(0)
		for x, a := range st.sharedAx {
			k = k*st.shDims[x] + en.crds[a][t]
		}
		next[t] = heads[k]
		//d2t2:ignore coordwidth t indexes a tile entry list whose length is bounded by the int32 tile volume; this is the innermost join loop
		heads[k] = int32(t) + 1
		keys[t] = entryKey(en, t, terms)
	}
}

// flushTile closes an output-tile scope: its CSF footprint (nnz plus,
// per level, the distinct prefixes' coordinates and segment words, and
// overflow chunking) is charged to the output traffic — the same
// arithmetic as the walker's flushOutput over its map keys.
func (s *engineState) flushTile() {
	p := s.p
	if p.list {
		s.countKeys()
	}
	nOut := p.nOut
	nnz := s.fibers[nOut-1]
	if nnz == 0 {
		return
	}
	t := &s.traffic
	if p.host.opts.ValuesOnly {
		t.Output += int64(nnz)
		t.OutputWrites++
		t.OutputNNZ += int64(nnz)
		return
	}
	words := nnz
	for l := 0; l < nOut; l++ {
		words += s.fibers[l]
		if l == 0 {
			words += 2
		} else {
			words += s.fibers[l-1] + 1
		}
	}
	writes := int64(1)
	if b := p.host.opts.OutputBufferWords; b > 0 && words > b {
		writes = int64((words + b - 1) / b)
		words += int(writes-1) * (nOut + 2)
		t.OutputOverflows += writes - 1
	}
	t.Output += int64(words)
	t.OutputWrites += writes
	t.OutputNNZ += int64(nnz)
}

// compactFloor is the key-list length below which the list path never
// compacts: a short list is sorted once, at flush.
const compactFloor = 1 << 14

// sortKeys sorts the list path's keys and returns the sorted slice
// (either the key list or its sort scratch).
func (s *engineState) sortKeys() []uint64 {
	sc := s.sc
	sc.sortBuf = grow(sc.sortBuf, len(sc.keys))
	keys, _ := radix.Sort(sc.keys, sc.sortBuf, nil, nil)
	return keys
}

// compactKeys sorts and dedupes the key list in place, so its memory
// tracks the scope's distinct cells rather than its partial products.
// It leaves at least as much room as the distinct keys take, so the
// next compaction is as many appends away and each key is sorted an
// amortized O(1) times.
func (s *engineState) compactKeys() {
	sc := s.sc
	sc.keys = append(sc.keys[:0], slices.Compact(s.sortKeys())...)
	sc.keys = slices.Grow(sc.keys, len(sc.keys))
}

// countKeys fills fibers from the list path's keys: sort them, then for
// each key walk its prefixes from longest to shortest against the
// previous key's, counting each new prefix and stopping at the first
// shared one — so a duplicate key counts nothing.
func (s *engineState) countKeys() {
	p := s.p
	if len(s.sc.keys) == 0 {
		return
	}
	keys := s.sortKeys()
	for l := range s.fibers[:p.nOut] {
		s.fibers[l] = 1
	}
	prev := keys[0]
	for _, k := range keys[1:] {
		for l := p.nOut - 1; l >= 0 && k/p.lvSuffix[l] != prev/p.lvSuffix[l]; l-- {
			s.fibers[l]++
		}
		prev = k
	}
}

// mergeInto folds this worker's counters into the host runner — exact
// integer sums per counter and per occurrence, plus the disjoint-key
// collect merge.
func (s *engineState) mergeInto(r *runner) {
	for ri := range s.inputWords {
		if w := s.inputWords[ri]; w != 0 {
			r.traffic.Input[s.p.refs[ri].name] += w
		}
	}
	r.traffic.Output += s.traffic.Output
	r.traffic.OutputWrites += s.traffic.OutputWrites
	r.traffic.TileIterations += s.traffic.TileIterations
	r.traffic.MACs += s.traffic.MACs
	r.traffic.OutputNNZ += s.traffic.OutputNNZ
	r.traffic.InputFetches += s.traffic.InputFetches
	r.traffic.OverflowFetches += s.traffic.OverflowFetches
	r.traffic.OutputOverflows += s.traffic.OutputOverflows
	if r.collect != nil {
		for k, v := range s.collect {
			r.collect[k] += v
		}
	}
}
