package exec

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"d2t2/internal/checked"
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

	// Row bands (runBands): the worker counts only the products of ri0
	// entries whose output row lies in [band[0], band[1]), and keeps
	// each scope's fibers in scopes, keyed by the scope's ordinal,
	// instead of charging them.
	banded bool
	band   [2]int32
	scope  int
	scopes []scopeFibers
}

// scopeFibers is one band's fibers for one output-tile scope.
type scopeFibers struct {
	scope  int
	fibers [maxEngineOut]int
}

// engineScratch holds a worker's buffers whose size depends on the data
// rather than the plan's rank: the output bits, the coordinate list,
// the join tables and the relation buffers. It is reused across
// MeasureCtx calls (freeScratch), so a steady-state call allocates
// nothing proportional to the output tile's area.
type engineScratch struct {
	// Dense path: one bit per output cell and per level-order prefix,
	// laid out by enginePlan.bitOff. Every bit of the whole capacity
	// is zero between scopes: a scope lists in rows the level-(nOut-2)
	// prefixes it set (for a rank-1 output, the cell words it made
	// nonzero), and its flush zeroes only their words, so a reset costs
	// what the scope touched, not the tile's area. open marks a scope
	// whose flush has not run; release clears a scratch left open.
	bits []uint64
	rows []uint32
	open bool

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
// measurements allocates no area-sized bits. It keeps at most two
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
	sc.bits = grow(sc.bits, p.bitWords)
	sc.heads = grow(sc.heads, p.maxHeads)
	sc.nextEnt = grow(sc.nextEnt, p.maxEnts)
	sc.keyEnt = grow(sc.keyEnt, p.maxEnts)
	s.sc = sc
	return s
}

// grow returns b resliced to n, reallocating (zeroed) only when its
// capacity is short. Stale contents are harmless: bits are zero over
// the whole capacity between scopes, and join tables are rebuilt before
// every read.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// release returns the state's scratch to freeScratch, first clearing
// the bits of a scope cut short (a panic inside the nest), so every
// pooled scratch holds zero bits.
func (s *engineState) release() {
	if sc := s.sc; sc.open {
		clear(sc.bits[:cap(sc.bits)])
		sc.rows = sc.rows[:0]
		sc.open = false
	}
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
	if n < workers && p.bandAx >= 0 {
		if bands := p.cutBands(workers); len(bands) > 2 {
			return p.runBands(ctx, bands)
		}
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
		s.mergeInto(p.host, true)
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
			s.mergeInto(p.host, true)
		}
		s.release()
	}
	return err
}

// bandBuckets bounds the row histogram cutBands keeps: taller tiles
// count rows in buckets of a power-of-two height.
const bandBuckets = 1 << 12

// cutBands cuts the output tile's level-0 rows into at most workers
// bands of about equal ri0 entry counts, summed over ri0's tiles, and
// returns the bands' bounds: band b is rows [bands[b], bands[b+1]).
func (p *enginePlan) cutBands(workers int) []int32 {
	rows := p.outTileDims[p.host.outLevels[0]]
	shift := 0
	for rows>>shift > bandBuckets {
		shift++
	}
	count := make([]int, (rows>>shift)+1)
	total := 0
	for i := range p.refs[p.ri0].ents {
		crd := p.refs[p.ri0].ents[i].crds[p.bandAx]
		for _, r := range crd {
			count[r>>shift]++
		}
		total += len(crd)
	}
	bands := []int32{0}
	cum := 0
	for b, c := range count {
		cum += c
		if len(bands) == workers || cum == total {
			break
		}
		if cum*workers >= len(bands)*total {
			bands = append(bands, min(checked.Int32(b+1)<<shift, rows))
		}
	}
	return append(bands, rows)
}

// runBands runs the whole nest once per band of output rows, each band
// on its own worker with private bits. Every worker walks the same nest
// and so opens the same scopes in the same order, but counts only the
// products of ri0 entries in its band. Bands are disjoint in output
// cells and in every prefix (each starts with the row), so a scope's
// fibers are the sums of its bands' fibers, and the flush arithmetic,
// overflow chunking included, runs once on those sums. Fetches, input
// words and tile iterations do not depend on the band: the first
// band's worker alone contributes them.
func (p *enginePlan) runBands(ctx context.Context, bands []int32) error {
	nb := len(bands) - 1
	states := make([]*engineState, nb)
	err := par.ForEachCtx(ctx, nb, nb, func(b int) error {
		s := newEngineState(p)
		states[b] = s
		s.banded = true
		s.band = [2]int32{bands[b], bands[b+1]}
		for vi := range p.topVals {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.runTop(vi)
		}
		return nil
	})
	defer func() {
		for _, s := range states {
			if s != nil {
				s.release()
			}
		}
	}()
	if err != nil {
		return err
	}
	var all []scopeFibers
	for b, s := range states {
		s.mergeInto(p.host, b == 0)
		all = append(all, s.scopes...)
	}
	slices.SortFunc(all, func(x, y scopeFibers) int { return x.scope - y.scope })
	for i := 0; i < len(all); {
		f := all[i].fibers
		j := i + 1
		for ; j < len(all) && all[j].scope == all[i].scope; j++ {
			for l, n := range all[j].fibers {
				f[l] += n
			}
		}
		p.charge(&p.host.traffic, &f)
		i = j
	}
	return nil
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

// beginTile opens a fresh output-tile scope: zero the counts and empty
// the key list. The bits are already zero: the previous scope's flush
// cleared what it set.
func (s *engineState) beginTile() {
	s.fibers = [maxEngineOut]int{}
	s.scope++
	s.sc.keys = s.sc.keys[:0]
	s.sc.open = true
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
	} else {
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

// touch sets a cell's bit on its first touch in the scope and counts
// it, then marks its prefixes.
func (s *engineState) touch(k uint64) {
	p, sc := s.p, s.sc
	w, m := k>>6, uint64(1)<<(k&63)
	b := sc.bits[w]
	if b&m != 0 {
		return
	}
	if b == 0 && p.nOut == 1 {
		sc.rows = append(sc.rows, uint32(w))
	}
	sc.bits[w] = b | m
	s.fibers[p.nOut-1]++
	if p.nOut > 1 {
		s.markRow(k / p.lvSuffix[p.nOut-2])
	}
}

// markRow marks the prefixes of a row — a level-(nOut-2) prefix — from
// the row itself to the shortest, counting each newly set bit and
// stopping at the first already set (every shorter prefix then is
// too). A newly set row is listed for the scope's reset.
func (s *engineState) markRow(row uint64) {
	p, sc := s.p, s.sc
	top := p.nOut - 2
	i := p.bitOff[top] + row
	if sc.bits[i>>6]&(1<<(i&63)) != 0 {
		return
	}
	sc.bits[i>>6] |= 1 << (i & 63)
	s.fibers[top]++
	sc.rows = append(sc.rows, uint32(row))
	k := row * p.lvSuffix[top]
	for l := top - 1; l >= 0; l-- {
		i := p.bitOff[l] + k/p.lvSuffix[l]
		w, m := i>>6, uint64(1)<<(i&63)
		if sc.bits[w]&m != 0 {
			return
		}
		sc.bits[w] |= m
		s.fibers[l]++
	}
}

// clearBits zeroes every bit the scope set: per listed row, the words
// holding its cells and its prefix bits (any other bit in a zeroed word
// belongs to a row the scope also listed, or was zero); for a rank-1
// output, the listed cell words.
func (s *engineState) clearBits() {
	p, sc := s.p, s.sc
	bits := sc.bits
	if p.nOut == 1 {
		for _, w := range sc.rows {
			bits[w] = 0
		}
	} else {
		width := p.lvSuffix[p.nOut-2]
		for _, r := range sc.rows {
			lo := uint64(r) * width
			clear(bits[lo>>6 : (lo+width+63)>>6])
			for l := 0; l < p.nOut-1; l++ {
				bits[(p.bitOff[l]+lo/p.lvSuffix[l])>>6] = 0
			}
		}
	}
	sc.rows = sc.rows[:0]
	sc.open = false
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
// shared coordinates (exact mixed-radix keys) and stream ri0's entries
// (a band worker: those in its band) through the table. With
// countInLeaf a product costs one bit test and set of its cell — no
// value, no call — and an entry that touched a new cell marks its row
// once, from its own share of the row key; otherwise each product is
// emitted.
func (s *engineState) leaf2() {
	p := s.p
	cur := s.cursors[p.depth]
	st := &p.join2
	e0 := &p.refs[p.ri0].ents[cur[p.ri0]]
	e1 := &p.refs[st.ri].ents[cur[st.ri]]
	lo, hi := 0, len(e0.vals)
	if s.banded {
		rows := e0.crds[p.bandAx]
		lo, _ = slices.BinarySearch(rows, s.band[0])
		hi, _ = slices.BinarySearch(rows, s.band[1])
		if lo == hi {
			return
		}
	}
	s.chain(st, e1, p.key1)
	heads, next, key1 := s.sc.heads[:st.heads], s.sc.nextEnt, s.sc.keyEnt
	bits := s.sc.bits
	macs := int64(0)
	for t := lo; t < hi; t++ {
		k := int32(0)
		for x, a0 := range p.sharedA0 {
			k = k*st.shDims[x] + e0.crds[a0][t]
		}
		q := heads[k]
		if q == 0 {
			continue
		}
		k0 := entryKey(e0, t, p.key0)
		if !p.countInLeaf {
			vt := e0.vals[t]
			for ; q != 0; q = next[q-1] {
				pi := q - 1
				macs++
				s.emit(vt*e1.vals[pi], k0+key1[pi])
			}
			continue
		}
		fresh := 0
		for ; q != 0; q = next[q-1] {
			c := k0 + key1[q-1]
			w := bits[c>>6]
			fresh += int(^w >> (c & 63) & 1)
			bits[c>>6] = w | 1<<(c&63)
			macs++
		}
		if fresh > 0 {
			s.fibers[p.nOut-1] += fresh
			s.markRow(entryKey(e0, t, p.rowKey))
		}
	}
	s.traffic.MACs += macs
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

// flushTile closes an output-tile scope: count the list path's keys or
// clear the scope's bits, then charge its fibers — or, on a band
// worker, keep them for runBands to sum.
func (s *engineState) flushTile() {
	p := s.p
	if p.list {
		s.countKeys()
	} else {
		s.clearBits()
	}
	if s.fibers[p.nOut-1] == 0 {
		return
	}
	if s.banded {
		s.scopes = append(s.scopes, scopeFibers{s.scope, s.fibers})
		return
	}
	p.charge(&s.traffic, &s.fibers)
}

// charge adds one scope's CSF footprint (nnz plus, per level, the
// distinct prefixes' coordinates and segment words, and overflow
// chunking) to the output traffic — the same arithmetic as the walker's
// flushOutput over its map keys.
func (p *enginePlan) charge(t *Traffic, fibers *[maxEngineOut]int) {
	nOut := p.nOut
	nnz := fibers[nOut-1]
	if p.host.opts.ValuesOnly {
		t.Output += int64(nnz)
		t.OutputWrites++
		t.OutputNNZ += int64(nnz)
		return
	}
	words := nnz
	for l := 0; l < nOut; l++ {
		words += fibers[l]
		if l == 0 {
			words += 2
		} else {
			words += fibers[l-1] + 1
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
// collect merge. With nest false (a band worker other than the first)
// the nest's own counters — fetches, input words, tile iterations,
// which every band repeats — are left out.
func (s *engineState) mergeInto(r *runner, nest bool) {
	if nest {
		for ri := range s.inputWords {
			if w := s.inputWords[ri]; w != 0 {
				r.traffic.Input[s.p.refs[ri].name] += w
			}
		}
		r.traffic.TileIterations += s.traffic.TileIterations
		r.traffic.InputFetches += s.traffic.InputFetches
		r.traffic.OverflowFetches += s.traffic.OverflowFetches
	}
	r.traffic.Output += s.traffic.Output
	r.traffic.OutputWrites += s.traffic.OutputWrites
	r.traffic.MACs += s.traffic.MACs
	r.traffic.OutputNNZ += s.traffic.OutputNNZ
	r.traffic.OutputOverflows += s.traffic.OutputOverflows
	if r.collect != nil {
		for k, v := range s.collect {
			r.collect[k] += v
		}
	}
}
