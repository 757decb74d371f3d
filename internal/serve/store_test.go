package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

func key(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return "sha256:" + hex.EncodeToString(sum[:])
}

func TestStorePathRejectsMalformedKeys(t *testing.T) {
	s, err := NewStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"",
		"sha256:short",
		"md5:" + strings.Repeat("a", 64),
		"sha256:" + strings.Repeat("A", 64), // upper-case hex is not canonical
		"sha256:../" + strings.Repeat("a", 61),
	} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", bad)
		}
	}
}

func TestStoreDiskAndMemLayers(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := key("artifact")
	if err := s.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if b, src, _ := s.Get(k); src != SourceMem || string(b) != "payload" {
		t.Fatalf("fresh Put not served from memory: src=%v b=%q", src, b)
	}

	// A second store over the same directory has a cold memory layer: the
	// first read comes from disk, the second from memory.
	s2, err := NewStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b, src, _ := s2.Get(k); src != SourceDisk || string(b) != "payload" {
		t.Fatalf("persisted artifact not served from disk: src=%v b=%q", src, b)
	}
	if _, src, _ := s2.Get(k); src != SourceMem {
		t.Fatalf("disk read was not admitted to memory: src=%v", src)
	}

	if _, src, _ := s2.Get(key("absent")); src != SourceNone {
		t.Fatalf("miss reported source %v", src)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := NewStore("", 100) // memory only, tiny budget
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 40)
	ka, kb, kc := key("a"), key("b"), key("c")
	for _, k := range []string{ka, kb, kc} {
		if err := s.Put(k, blob); err != nil {
			t.Fatal(err)
		}
	}
	// 3*40 > 100: the least recently used (a) must be gone.
	if _, src, _ := s.Get(ka); src != SourceNone {
		t.Errorf("oldest entry not evicted: src=%v", src)
	}
	if _, src, _ := s.Get(kc); src != SourceMem {
		t.Errorf("newest entry evicted: src=%v", src)
	}
	if got := s.MemBytes(); got > 100 {
		t.Errorf("memory layer over budget: %d", got)
	}

	// An artifact bigger than the whole budget bypasses memory entirely.
	if err := s.Put(key("huge"), make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if _, src, _ := s.Get(key("huge")); src != SourceNone {
		t.Errorf("oversized artifact admitted to memory")
	}
	if got := s.MemBytes(); got > 100 {
		t.Errorf("memory layer over budget after oversized Put: %d", got)
	}
}

func TestPoolShutdown(t *testing.T) {
	p := newPool(2)
	ran := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		started, err := p.run(context.Background(), func() { ran <- struct{}{} })
		if err != nil || !started {
			t.Fatalf("run: started=%v err=%v", started, err)
		}
	}
	if len(ran) != 4 {
		t.Fatalf("ran %d jobs, want 4", len(ran))
	}
	p.shutdown()
	p.shutdown() // idempotent
	if started, err := p.run(context.Background(), func() {}); err != ErrShuttingDown || started {
		t.Fatalf("run after shutdown: started=%v err=%v, want ErrShuttingDown", started, err)
	}
}

// TestStoreConcurrentLRU hammers one small-budget store from many
// goroutines with the memory budget checked continuously: MemBytes must
// never exceed the configured bound, no operation may error, and after
// the dust settles every artifact must still be readable
// byte-identically from disk even when the memory layer evicted it. The
// "bytes" input mixes Put, Get and re-admission; "mixed" also keeps
// decoded values beside artifacts and value-only raw-rung entries, as
// the server does, so all three kinds share one byte account.
func TestStoreConcurrentLRU(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		name := "bytes"
		if mixed {
			name = "mixed"
		}
		t.Run(name, func(t *testing.T) { testStoreConcurrentLRU(t, mixed) })
	}
}

func testStoreConcurrentLRU(t *testing.T, mixed bool) {
	const (
		maxBytes   = 8 << 10
		entryBytes = 1 << 10
		keys       = 48
		workers    = 8
		rounds     = 50
	)
	s, err := NewStore(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	payload := func(i int) []byte {
		b := make([]byte, entryBytes)
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*rounds + r) % keys
				k := key(fmt.Sprintf("concurrent-%d", i))
				if err := s.Put(k, payload(i)); err != nil {
					errs <- fmt.Errorf("Put %d: %w", i, err)
					return
				}
				if b, src, err := s.Get(k); err != nil {
					errs <- fmt.Errorf("Get %d: %w", i, err)
					return
				} else if src != SourceNone && !bytes.Equal(b, payload(i)) {
					errs <- fmt.Errorf("Get %d: corrupted bytes from %v", i, src)
					return
				}
				if mixed {
					// A decoded value beside the artifact, first value
					// winning, and a value-only entry under a raw key.
					if v, _ := s.Keep(k, payload(i), i, 512); v != i {
						errs <- fmt.Errorf("Keep %d: resident value %v", i, v)
						return
					}
					if v, ok := s.Value(k); ok && v != i {
						errs <- fmt.Errorf("Value %d: %v", i, v)
						return
					}
					raw := fmt.Sprintf("optimize\n{\"n\":%d}", w*rounds+r)
					e := rawEntry{key: k}
					s.Keep(raw, nil, e, int64(len(raw)+len(e.key)))
					if v, ok := s.Value(raw); ok && v != e {
						errs <- fmt.Errorf("raw entry %q: %v", raw, v)
						return
					}
				}
				if mb := s.MemBytes(); mb > maxBytes {
					errs <- fmt.Errorf("memory budget exceeded: %d > %d", mb, maxBytes)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if mb := s.MemBytes(); mb > maxBytes {
		t.Fatalf("final memory budget exceeded: %d > %d", mb, maxBytes)
	}
	if got := storeCharge(s); got != s.MemBytes() {
		t.Fatalf("entries are charged %d bytes, MemBytes %d", got, s.MemBytes())
	}
	// Every key must read back byte-identical — most from disk, since 48
	// KiB of artifacts cannot fit an 8 KiB memory layer.
	fromDisk := 0
	for i := 0; i < keys; i++ {
		k := key(fmt.Sprintf("concurrent-%d", i))
		b, src, err := s.Get(k)
		if err != nil || b == nil {
			t.Fatalf("post-hammer Get %d: src %v, err %v", i, src, err)
		}
		if !bytes.Equal(b, payload(i)) {
			t.Fatalf("post-hammer Get %d: bytes differ", i)
		}
		if src == SourceDisk {
			fromDisk++
		}
	}
	if fromDisk == 0 {
		t.Fatalf("no key was served from disk; eviction never happened?")
	}
}

// storeCharge recounts what the resident entries are charged: bytes,
// plus the estimate and valueOverhead for each value.
func storeCharge(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for el := s.ll.Front(); el != nil; el = el.Next() {
		n += el.Value.(*storeEntry).size
	}
	return n
}

// TestStoreRawEntryBudget fills a store with raw-rung entries the way
// the server does: the store never holds more than its byte budget,
// its byte count matches its entries across evictions, a repeated fill
// is a no-op that keeps the first value, and an entry whose charge is
// above the whole budget, or above valueOnlyMax, never enters — while
// an artifact of that size does.
func TestStoreRawEntryBudget(t *testing.T) {
	const budget = 1 << 20
	s, err := NewStore("", budget)
	if err != nil {
		t.Fatal(err)
	}
	e := rawEntry{key: "sha256:" + strings.Repeat("0", 64), risk: "target=0.05"}
	keep := func(raw string, e rawEntry) {
		s.Keep(raw, nil, e, int64(len(raw)+len(e.key)+len(e.risk)))
	}
	for i := 0; i < 10000; i++ {
		raw := fmt.Sprintf("optimize\n{\"n\":%d}", i) + strings.Repeat(" ", i%300)
		keep(raw, e)
		keep(raw, rawEntry{key: "other"})
		if v, ok := s.Value(raw); !ok || v != e {
			t.Fatalf("entry %d: resident value %v, want the first %v", i, v, e)
		}
	}
	huge := "predict\n" + strings.Repeat(" ", budget)
	keep(huge, e)
	if _, ok := s.Value(huge); ok {
		t.Errorf("an entry above the whole budget entered the store")
	}
	padded := "optimize\n{}" + strings.Repeat(" ", valueOnlyMax)
	keep(padded, e)
	if _, ok := s.Value(padded); ok {
		t.Errorf("a %d-byte raw entry, above valueOnlyMax, entered the store", len(padded))
	}
	if _, ok := s.Keep(key("padded"), []byte(padded), nil, 0); !ok {
		t.Errorf("a %d-byte artifact was refused under a %d-byte budget", len(padded), budget)
	}
	evict(s, key("padded"))
	if got, mb := storeCharge(s), s.MemBytes(); got != mb || mb > budget {
		t.Fatalf("store holds %d bytes in %d entries, counts %d, budget %d", got, len(s.idx), mb, budget)
	}
	if mb := s.MemBytes(); mb < budget*3/4 {
		t.Errorf("store holds only %d of %d bytes after filling past its budget", mb, budget)
	}
}

// TestStoreKeepFirstValue: a value kept beside resident bytes is charged
// on top of them, a second value for the same key is refused in favour
// of the first, keeping the first again re-charges it (evicting older
// entries to fit, and dropping the entry once it outgrows the whole
// budget), a value that would take the entry past the whole budget is
// not attached, a value-only entry under a content address is refused,
// Seen reports a resident key's second ask, and evicting the entry
// releases its whole charge.
func TestStoreKeepFirstValue(t *testing.T) {
	s, err := NewStore("", 4096)
	if err != nil {
		t.Fatal(err)
	}
	k := key("tensor")
	if err := s.Put(k, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value(k); ok {
		t.Fatalf("bytes-only entry reports value %v", v)
	}
	first, second := new(int), new(int)
	if v, ok := s.Keep(k, make([]byte, 100), first, 1000); v != first || !ok {
		t.Fatalf("Keep returned %v, %v, want the first value kept", v, ok)
	}
	if got, want := s.MemBytes(), int64(100+1000+valueOverhead); got != want {
		t.Fatalf("MemBytes %d after attaching a value, want %d", got, want)
	}
	if v, ok := s.Keep(k, nil, second, 10); v != first || !ok {
		t.Fatalf("a second value replaced the first")
	}
	if v, ok := s.Value(k); !ok || v != first {
		t.Fatalf("Value = %v, %v", v, ok)
	}
	if b, src, _ := s.Get(k); src != SourceMem || len(b) != 100 {
		t.Fatalf("the artifact bytes changed: %d bytes from %v", len(b), src)
	}
	if s.Seen(k) || !s.Seen(k) || s.Seen(key("absent")) {
		t.Fatal("Seen does not report the second ask of a resident key alone")
	}
	older := key("older")
	if err := s.Put(older, make([]byte, 1500)); err != nil {
		t.Fatal(err)
	}
	s.Value(k) // k is the most recently used entry
	if v, ok := s.Keep(k, nil, first, 2500); v != first || !ok {
		t.Fatalf("re-charging the first value returned %v, %v", v, ok)
	}
	if got, want := s.MemBytes(), int64(100+2500+valueOverhead); got != want {
		t.Fatalf("MemBytes %d after re-charging, want %d with the older entry evicted", got, want)
	}
	if b, _, _ := s.Get(older); b != nil {
		t.Fatal("re-charging evicted nothing")
	}
	if v, ok := s.Keep(k, nil, first, 4096); v != first || ok {
		t.Fatalf("re-charging past the whole budget returned %v, %v", v, ok)
	}
	if b, _, _ := s.Get(k); b != nil || s.MemBytes() != 0 {
		t.Fatalf("an entry re-charged past the budget stayed: %d bytes, MemBytes %d", len(b), s.MemBytes())
	}
	if _, ok := s.Keep(k, nil, first, 10); ok {
		t.Fatal("a value-only entry was kept under a content address")
	}
	if err := s.Put(k, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	k2 := key("too big")
	if err := s.Put(k2, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Keep(k2, nil, second, 4096); v != second || ok {
		t.Fatalf("Keep of an unfit value returned %v, %v", v, ok)
	}
	if _, ok := s.Value(k2); ok {
		t.Fatal("a value past the whole budget was attached")
	}
	evict(s, k)
	evict(s, k2)
	if got := s.MemBytes(); got != 0 {
		t.Fatalf("MemBytes %d after evicting everything", got)
	}
}

// TestStatsArtifactsCarryStatsOnly checks the statistics artifact shape:
// a collection stores exactly the canonical stats-only encoding (no TILE
// section), and an artifact written the older way — statistics plus the
// conservative tiling — still loads through storeCache.LoadStats to the
// same statistics bytes and serves an optimize without a collection.
func TestStatsArtifactsCarryStatsOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := ingestGen(t, ts.URL, "C", 1<<20)
	optimize := func(tile int) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{
			"kernel": testKernel,
			"inputs": map[string]string{"A": id, "B": id},
			"tile":   tile,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize tile %d: status %d: %s", tile, resp.StatusCode, body)
		}
	}
	optimize(32)
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Fatalf("stats_collect_total = %d, want 1", got)
	}
	stored, _, err := s.store.Get(snapshot.StatsKey(id, []int{32, 32}, []int{0, 1}, 8))
	if err != nil || stored == nil {
		t.Fatalf("stats artifact not stored: %v", err)
	}
	a, err := snapshot.DecodeBytes(stored)
	if err != nil || a.Stats == nil {
		t.Fatalf("stored stats artifact: %v", err)
	}
	if a.Tiled != nil {
		t.Fatal("stored stats artifact carries a TILE section")
	}
	want, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: a.Stats})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, want) {
		t.Fatal("stored stats artifact is not the canonical stats-only encoding")
	}

	// An artifact in the older shape, at a frame not yet collected.
	tb, _, err := s.store.Get(id)
	if err != nil || tb == nil {
		t.Fatalf("tensor artifact: %v", err)
	}
	ta, err := snapshot.DecodeBytes(tb)
	if err != nil || ta.Tensor == nil {
		t.Fatalf("tensor artifact: %v", err)
	}
	dims, order := []int{16, 16}, []int{0, 1}
	st, tt, err := stats.CollectCtx(context.Background(), ta.Tensor, dims, order, &stats.Options{MicroDiv: 8})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: st, Tiled: tt})
	if err != nil {
		t.Fatal(err)
	}
	key := snapshot.StatsKey(id, dims, order, 8)
	if err := s.store.Put(key, legacy); err != nil {
		t.Fatal(err)
	}
	got, ok := (&storeCache{s: s}).LoadStats(context.Background(), key)
	if !ok {
		t.Fatal("stats artifact with a TILE section did not load")
	}
	gotBytes, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: got})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("stats loaded from a TILE-carrying artifact differ from the collected stats")
	}
	optimize(16)
	if got := s.Metric("stats_collect_total"); got != 1 {
		t.Fatalf("optimize over a TILE-carrying artifact re-collected: stats_collect_total = %d", got)
	}
}
