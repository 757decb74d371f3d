package stats

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"d2t2/internal/gen"
)

// TestCollectCtxCancellation checks that a dead context aborts
// collection before any reduction runs.
func TestCollectCtxCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := gen.PowerLawGraph(r, 256, 4000, 1.5)
	opts := func() *Options { return &Options{MicroDiv: 4, Workers: 4} }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s, tt, err := CollectCtx(ctx, m, []int{32, 32}, []int{1, 0}, opts()); s != nil || tt != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want (nil, nil, context.Canceled), got (%v, %v, %v)", s, tt, err)
	}
}

// TestCollectWorkersDeterministic checks that every collected statistic
// — including the unexported occupancy tables and micro summary — is
// identical at any worker count.
func TestCollectWorkersDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := gen.PowerLawGraph(r, 512, 8000, 1.6)
	base := Options{MicroDiv: 4}

	o1 := base
	o1.Workers = 1
	s1, _, err := CollectCtx(context.Background(), m, []int{32, 32}, []int{1, 0}, &o1)
	if err != nil {
		t.Fatal(err)
	}
	o8 := base
	o8.Workers = 8
	s8, _, err := CollectCtx(context.Background(), m, []int{32, 32}, []int{1, 0}, &o8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Fatal("stats differ between Workers=1 and Workers=8")
	}
}

// TestSketchMergeMatchesSerial pins the bottom-k merge invariant the
// chunked entry pass relies on: merging per-part sketches equals one
// serial pass over all hashes.
func TestSketchMergeMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	hashes := make([]uint64, 5000)
	for i := range hashes {
		hashes[i] = hash64(uint64(r.Int63()))
	}
	serial := newBottomK(sketchSize)
	for _, h := range hashes {
		serial.add(h)
	}
	parts := []*bottomK{newBottomK(sketchSize), newBottomK(sketchSize), newBottomK(sketchSize)}
	for i, h := range hashes {
		parts[i%3].add(h)
	}
	merged := newBottomK(sketchSize)
	// Merge in reverse order to exercise order independence too.
	for i := len(parts) - 1; i >= 0; i-- {
		merged.merge(parts[i])
	}
	if !reflect.DeepEqual(serial.values(), merged.values()) {
		t.Fatal("merged sketch differs from serial sketch")
	}
}
