package stats

import (
	"reflect"

	"d2t2/internal/tensor"
)

// alloc bounds the heap one allocation of n bytes occupies.
var alloc = tensor.AllocBytes

// Struct sizes for the heap accounting, read off the types so that a new
// field is counted without touching the accounting.
var (
	statsBytes      = int(reflect.TypeFor[Stats]().Size())
	microBytes      = int(reflect.TypeFor[microSummary]().Size())
	shapeBytes      = int(reflect.TypeFor[ShapeStats]().Size())
	projectionBytes = int(reflect.TypeFor[Projection]().Size())
)

// memoMapBytes bounds a memo's map once it holds a key: its header and
// first bucket array. Every bundle and every kept shape is charged it,
// whether or not its memo ever fills.
var memoMapBytes = alloc(48) + alloc(272)

// memoKeyBytes bounds what a memo spends to keep one key beside the
// value: its entry (a sync.Once, the value, the error and a counter),
// the key's bytes, and the key's share of the map's slots, four slots
// of a string key and an entry pointer (a grown map is at least 40%
// full, and its old buckets live on until evacuated).
func memoKeyBytes(key string) int64 {
	return alloc(48) + alloc(len(key)) + 4*(1+16+8)
}

// HeapBytes bounds the heap the bundle occupies: every field at its
// capacity, and what its shape memo, the kept shapes' projection memos
// and the tables it keeps (KeptTable) hold. It is the size a cache
// charges for keeping the bundle. It grows as the memos fill, so a cache
// that keeps a bundle while others price shapes or predict on it charges
// it again when they are done.
func (s *Stats) HeapBytes() int64 {
	b := alloc(statsBytes) + memoMapBytes + s.memoBytes.Load()
	s.shapes.Range(func(sh *ShapeStats) { b += sh.projBytes.Load() })
	s.tables.Range(func(t heldTable) { b += t.heldBytes() })
	b += alloc(8*cap(s.Dims)) + alloc(8*cap(s.BaseTileDims)) + alloc(8*cap(s.Order)) +
		alloc(8*cap(s.PrTileIdx)) + alloc(8*cap(s.ProbIndex))
	// Corrs: a map of at most one entry per axis, an int key and a slice
	// header per slot.
	b += alloc(48) + alloc(2*(len(s.Corrs)+8)*(1+8+24))
	for _, c := range s.Corrs {
		b += alloc(8 * cap(c))
	}
	b += alloc(24 * cap(s.TileCorrs))
	for _, c := range s.TileCorrs {
		b += alloc(8 * cap(c))
	}
	b += alloc(24 * cap(s.ElemCounts))
	for _, c := range s.ElemCounts {
		b += alloc(4 * cap(c))
	}
	b += alloc(24 * cap(s.PairSketch))
	for _, c := range s.PairSketch {
		b += alloc(8 * cap(c))
	}
	b += alloc(24 * cap(s.occupancy))
	for _, c := range s.occupancy {
		b += alloc(cap(c))
	}
	if m := s.micro; m != nil {
		b += alloc(microBytes) + alloc(8*cap(m.dims)) + alloc(8*cap(m.microDims)) + alloc(8*cap(m.outerDims)) +
			alloc(8*cap(m.keys)) + alloc(4*cap(m.nnz)) + alloc(4*cap(m.footprint))
	}
	return b
}

// heapBytes bounds the heap a kept shape occupies, its (still empty)
// projection memo included.
func (sh *ShapeStats) heapBytes() int64 {
	return alloc(shapeBytes) + memoMapBytes +
		alloc(8*cap(sh.TileDims)) + alloc(8*cap(sh.OuterDims)) + alloc(8*cap(sh.Marginal)) +
		alloc(8*cap(sh.Occupied)) + alloc(8*cap(sh.PrefixOccupied)) + alloc(8*cap(sh.Order)) +
		alloc(4*cap(sh.GroupOuter)) + alloc(8*cap(sh.GroupFP)) + alloc(8*cap(sh.fp))
}

// heapBytes bounds the heap a kept projection over shared axes
// occupies: its tables and its grid, a radix.Codec of one field per
// shared axis (a struct and two tables of at most one word per field
// plus one).
func (p *Projection) heapBytes(shared int) int64 {
	return alloc(projectionBytes) + alloc(8*cap(p.Keys)) + alloc(4*cap(p.Count)) +
		alloc(48) + 2*alloc(8*(shared+1))
}
