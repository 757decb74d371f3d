package stats

import (
	"reflect"
	"sync/atomic"

	"d2t2/internal/par"
)

// tableCap bounds the tables one bundle keeps. A bundle hosts one table
// per kernel, co-operand bundles, mode and ablations it is the first
// input of; past the cap, further groups get a table the bundle does
// not keep, so one bundle's memos stay bounded however many groups
// price on it.
const tableCap = 16

// Table is a memo of values computed from a bundle, one flight per key:
// the model keeps its predictions in one (model.Predictor). A table
// kept on a bundle (KeptTable) lives as long as the bundle does, counts
// toward its HeapBytes and tells the bundle's observer of each value it
// computes (ObserveTableRuns). The zero value is a private table, held
// by no bundle. V must be a pointer type, as the accounting assumes,
// and a table must hold no pointer to another bundle, so that a
// co-operand bundle evicted from a cache can be collected.
type Table[V any] struct {
	m par.Memo[string, V]
	// bytes accounts for what m holds: each value's size is added when
	// the memo keeps it.
	bytes atomic.Int64
	host  *Stats // the bundle keeping the table; nil for a private one
}

// Do returns the value kept under key, computing it with fn on the
// key's first ask, as par.Memo.Do does with limit. size bounds the heap
// a kept value occupies.
func (t *Table[V]) Do(key string, limit int, fn func() (V, error), size func(V) int64) (V, error) {
	return t.m.DoKeep(key, limit, func() (V, error) {
		if t.host != nil {
			if h := t.host.tableObserver.Load(); h != nil {
				(*h)()
			}
		}
		return fn()
	}, func(v V) {
		t.bytes.Add(size(v) + memoKeyBytes(key))
	})
}

// Landed returns the value kept under key if it has been computed, as
// par.Memo.Landed does.
func (t *Table[V]) Landed(key string) (V, bool) { return t.m.Landed(key) }

// Runs reports how many values the table computed, and Len how many it
// keeps (see par.Memo).
func (t *Table[V]) Runs() int64 { return t.m.Runs() }
func (t *Table[V]) Len() int    { return t.m.Len() }

func (t *Table[V]) heldBytes() int64 { return t.bytes.Load() }

// heldTable is what a bundle's table memo holds: a Table of any value
// type.
type heldTable interface{ heldBytes() int64 }

// tableBytes bounds a kept table's own struct; its value type does not
// change its size.
var tableBytes = int(reflect.TypeFor[Table[*Stats]]().Size())

// KeptTable returns the table s keeps under key, making it on the key's
// first ask; concurrent askers of a key get the one table. key must
// name, by content, everything the table's values depend on besides s
// and their own keys: every asker of key then computes the same value
// for a value key, so the table can never hold a stale one. Once s
// keeps tableCap tables, a new key gets a table s does not keep or
// charge for. Each table s keeps counts toward HeapBytes with what it
// holds. A key must always be asked with one value type.
func KeptTable[V any](s *Stats, key string) *Table[V] {
	h, _ := s.tables.DoKeep(key, tableCap, func() (heldTable, error) {
		return &Table[V]{host: s}, nil
	}, func(heldTable) {
		// The table, its value map, and the bundle's table map (charged
		// with every table, a bound); the bundle's memo entry holds an
		// interface, one word more than memoKeyBytes's pointer.
		s.memoBytes.Add(alloc(tableBytes) + 2*memoMapBytes + memoKeyBytes(key) + 16)
	})
	return h.(*Table[V])
}

// ObserveTableRuns has f called once per value a table of the bundle
// computes (memo hits excluded), whether or not the bundle keeps the
// table. A later call replaces f.
func (s *Stats) ObserveTableRuns(f func()) {
	s.tableObserver.Store(&f)
}
