package stats

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestKeptTableCap fills more tables on one bundle than it keeps: the
// bundle keeps tableCap of them, a key asked again gets its kept table,
// and a key past the cap gets a working table of its own that the
// bundle neither keeps nor charges for, whose computations the bundle's
// observer still sees.
func TestKeptTableCap(t *testing.T) {
	s, _, err := CollectCtx(context.Background(), denseMatrix(32), []int{8, 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	s.ObserveTableRuns(func() { runs.Add(1) })
	fill := func(tb *Table[*int]) {
		v, err := tb.Do("x", 0, func() (*int, error) { return new(int), nil }, func(*int) int64 { return 8 })
		if err != nil || v == nil {
			t.Fatalf("Do: %v, %v", v, err)
		}
	}
	base := s.HeapBytes()
	kept := make([]*Table[*int], tableCap)
	for i := range kept {
		kept[i] = KeptTable[*int](s, fmt.Sprint("group ", i))
		fill(kept[i])
	}
	full := s.HeapBytes()
	if full <= base {
		t.Fatalf("%d kept tables grew the charge from %d to %d bytes", tableCap, base, full)
	}
	for i, tb := range kept {
		if again := KeptTable[*int](s, fmt.Sprint("group ", i)); again != tb || again.Runs() != 1 || again.Len() != 1 {
			t.Fatalf("group %d asked again: got another table or a recomputation", i)
		}
		fill(tb)
	}
	over := KeptTable[*int](s, "one group too many")
	fill(over)
	if again := KeptTable[*int](s, "one group too many"); again == over {
		t.Fatal("a table past the cap was kept")
	}
	if n := s.tables.Len(); n != tableCap {
		t.Fatalf("the bundle keeps %d tables, cap %d", n, tableCap)
	}
	if got := s.HeapBytes(); got != full {
		t.Fatalf("a table past the cap moved the charge from %d to %d bytes", full, got)
	}
	if got := runs.Load(); got != tableCap+1 {
		t.Fatalf("the observer saw %d computations, want %d", got, tableCap+1)
	}
}
