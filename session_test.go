package d2t2

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"d2t2/internal/stats"
)

// countingCache is a StatsCache that counts its traffic.
type countingCache struct {
	mu            sync.Mutex
	m             map[string]*stats.Stats
	loads, stores int
}

func (c *countingCache) LoadStats(_ context.Context, key string) (*stats.Stats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loads++
	st, ok := c.m[key]
	return st, ok
}

func (c *countingCache) StoreStats(_ context.Context, key string, st *stats.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	c.m[key] = st
}

// TestBatchSharesBundles checks that a Batch consults the cache once
// per distinct bundle — not once per job and phase — and that its
// concurrent optimizes return the plans a plain session returns.
func TestBatchSharesBundles(t *testing.T) {
	a, err := Dataset("Q", 96)
	if err != nil {
		t.Fatal(err)
	}
	inputs := Inputs{"A": a, "B": a}
	k := Gustavson()
	var opts []Options
	for _, tile := range []int{32, 16} { // two base tiles: two bundles
		for i := 0; i < 4; i++ {
			opts = append(opts, Options{BufferWords: DenseTileWords(tile, tile) + 61*i})
		}
	}
	const bundles = 2

	cache := &countingCache{m: make(map[string]*stats.Stats)}
	batch := NewSession(cache).NewBatch()
	ctx := context.Background()
	for _, o := range opts {
		if err := batch.PrecollectCtx(ctx, k, inputs, o); err != nil {
			t.Fatal(err)
		}
	}
	plans := make([]*Plan, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func(i int, o Options) {
			defer wg.Done()
			plans[i], errs[i] = batch.OptimizeCtx(ctx, k, inputs, o)
		}(i, o)
	}
	wg.Wait()
	if cache.loads != bundles || cache.stores != bundles {
		t.Fatalf("%d jobs made %d cache loads and %d stores, want %d each", len(opts), cache.loads, cache.stores, bundles)
	}
	plain := NewSession(nil)
	for i, o := range opts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := plain.Optimize(k, inputs, o)
		if err != nil {
			t.Fatal(err)
		}
		got := plans[i]
		if !reflect.DeepEqual(got.Config, want.Config) || got.BaseTile != want.BaseTile || got.RF != want.RF ||
			got.TileFactor != want.TileFactor || got.PredictedMB != want.PredictedMB {
			t.Fatalf("job %d: batch plan %+v, session plan %+v", i, got, want)
		}
	}
}
