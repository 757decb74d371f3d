package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Phases a span can belong to.
const (
	phaseSetup = "setup"
	phaseTimed = "timed"
	phaseCheck = "check"
)

// span is one timed call at a layer boundary. Op is the index of the
// benchmark operation it served (-1 for set-up work), Parent the ID of
// the enclosing span (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	Self   int64  `json:"self_ns"`
}

// tracer records spans in memory. A nil tracer records nothing and adds
// nothing but the call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// parent, phase and op label the spans recorded next.
	parent int
	phase  string
	op     int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), phase: phaseSetup, op: -1} }

// heapAllocs returns the bytes allocated on the heap since start-up.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// run times fn as a span named name under the current parent.
func (t *tracer) run(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	a0 := heapAllocs()
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	a1 := heapAllocs()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.parent, Name: name, Phase: t.phase, Op: t.op,
		Start: int64(start), End: int64(end), Alloc: a1 - a0,
	})
	t.mu.Unlock()
	return err
}

// enter opens a parent span for one operation: spans recorded until the
// returned function runs are its children.
func (t *tracer) enter(name, phase string, op int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Phase: phase, Op: op, Start: int64(start)})
	id := len(t.spans)
	t.parent, t.phase, t.op = id, phase, op
	t.mu.Unlock()
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = int64(end)
		t.parent = 0
		t.mu.Unlock()
	}
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) finish() {
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = (s.End - s.Start) - covered(kids[s.ID])
	}
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	ns    int64
	alloc uint64
}

func (l layerStat) msPerCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.ns) / float64(l.calls) / 1e6
}

func (l layerStat) mbPerCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.alloc) / float64(l.calls) / (1 << 20)
}

// layers aggregates child spans (the layer calls) by name.
func (t *tracer) layers() map[string]layerStat {
	out := make(map[string]layerStat)
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		l := out[s.Name]
		l.calls++
		l.ns += s.End - s.Start
		l.alloc += s.Alloc
		out[s.Name] = l
	}
	return out
}

// libraryMS returns, per timed op, the wall time its layer calls cover.
func (t *tracer) libraryMS(ops int) []float64 {
	iv := make([][][2]int64, ops)
	for _, s := range t.spans {
		if s.Parent != 0 && s.Phase == phaseTimed && s.Op >= 0 && s.Op < ops {
			iv[s.Op] = append(iv[s.Op], [2]int64{s.Start, s.End})
		}
	}
	out := make([]float64, ops)
	for i := range iv {
		out[i] = float64(covered(iv[i])) / 1e6
	}
	return out
}
