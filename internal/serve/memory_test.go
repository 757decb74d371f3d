package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"d2t2"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
)

// tnsBody renders nnz random entries of a dims-shaped tensor as a .tns
// upload (duplicates are summed by ingest).
func tnsBody(r *rand.Rand, dims []int, nnz int) string {
	var b strings.Builder
	for p := 0; p < nnz; p++ {
		for _, d := range dims {
			fmt.Fprintf(&b, "%d ", 1+r.Intn(d))
		}
		fmt.Fprintf(&b, "%d.5\n", 1+r.Intn(9))
	}
	return b.String()
}

// uploadRaw ingests body in process and returns the response status
// and the content address (or error text).
func uploadRaw(s *Server, body string) (int, string) {
	rec := serveRaw(s, "/v1/tensors", "text/plain", body)
	var ir struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	json.Unmarshal(rec.Body.Bytes(), &ir)
	if rec.Code != http.StatusOK {
		return rec.Code, ir.Error
	}
	return rec.Code, ir.ID
}

func heapInuse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestResidentHeapBounded ingests N distinct tensors into a server with
// an 8 MiB budget, at two values of N 4× apart, both several times past
// the budget, and optimizes every sixth one at three buffers in one
// band: the first collects its statistics bundle, the second loads it,
// the third loads it again, keeps it and fills its shape memo. The
// store's charge never exceeds the budget after any request, and the
// live heap the server adds stays under the budget plus residentSlack,
// so what d2t2d keeps — tensors, bundles and their memos — does not
// grow with the number of requests.
func TestResidentHeapBounded(t *testing.T) {
	const (
		budget = 8 << 20
		// residentSlack covers what the budget does not: the server's own
		// structures, the allocator's partly used spans, and the last
		// upload's garbage that a single GC cycle may not return.
		residentSlack = 4 << 20
	)
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{24, 96} {
		base := heapInuse()
		s, err := New(Config{MemCacheBytes: budget, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			// About 400 KiB charged each: 20 fill the budget.
			code, id := uploadRaw(s, tnsBody(r, []int{2000, 2000}, 8000))
			if code != http.StatusOK {
				t.Fatalf("N=%d upload %d: status %d: %s", n, i, code, id)
			}
			if mb := s.store.MemBytes(); mb > budget {
				t.Fatalf("N=%d upload %d: MemBytes %d past the budget %d", n, i, mb, budget)
			}
			for b := 0; i%6 == 0 && b < 3; b++ {
				body := fmt.Sprintf(`{"kernel":%q,"inputs":{"A":%q,"B":%q},"bufferWords":%d}`,
					testKernel, id, id, denseSquareWords(32, 2)+97*b)
				if rec := serveRaw(s, "/v1/optimize", "application/json", body); rec.Code != http.StatusOK {
					t.Fatalf("N=%d optimize %d: status %d: %s", n, i, rec.Code, rec.Body)
				}
				if mb := s.store.MemBytes(); mb > budget {
					t.Fatalf("N=%d optimize %d: MemBytes %d past the budget %d", n, i, mb, budget)
				}
			}
		}
		if len(residentBundles(s.store)) == 0 {
			t.Fatalf("N=%d: no statistics bundle is resident", n)
		}
		if got := s.Metric("tensors_registered"); got != int64(n) {
			t.Fatalf("N=%d: tensors_registered = %d", n, got)
		}
		grown := int64(heapInuse()) - int64(base)
		t.Logf("N=%d: heap in use grew %.1f MiB, store charges %.1f MiB", n, float64(grown)/(1<<20), float64(s.store.MemBytes())/(1<<20))
		if grown > budget+residentSlack {
			t.Errorf("N=%d: heap in use grew %d bytes, over the %d-byte budget plus %d slack", n, grown, budget, residentSlack)
		}
		runtime.KeepAlive(s)
		s.Shutdown(context.Background())
	}
}

// TestTensorChargeCoversHeap: what the store charges for a tensor beside
// its artifact (COO.HeapBytes plus valueOverhead) is not below the heap
// the tensor really holds, for orders 2–4, both for a tensor decoded
// from its artifact (tensorByID's reload) and for one parsed from an
// upload (parseUpload, then registerTensor), and the two are charged
// alike: parsing leaves no spare capacity behind. The heap is the
// minimum over three measurements, so other goroutines' allocations
// cannot inflate it.
func TestTensorChargeCoversHeap(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, dims := range [][]int{{3000, 2000}, {200, 150, 100}, {60, 50, 40, 30}} {
		body := tnsBody(r, dims, 5000+r.Intn(5000))
		x, err := d2t2.FromStream(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		x.Normalize()
		artifact, err := snapshot.EncodeBytes(&snapshot.Artifact{Tensor: x.COO()})
		if err != nil {
			t.Fatal(err)
		}
		charges := map[string]int64{}
		for _, kind := range []string{"decoded", "parsed"} {
			var heap uint64 = 1 << 62
			var charge int64
			for rep := 0; rep < 3; rep++ {
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				var v *d2t2.Tensor
				if kind == "decoded" {
					a, err := snapshot.DecodeBytes(artifact)
					if err != nil {
						t.Fatal(err)
					}
					v = d2t2.FromCOO(a.Tensor, "")
				} else if v, err = parseUpload(context.Background(), false, []byte(body), 0); err != nil {
					t.Fatal(err)
				}
				if _, err := d2t2.NewSession(nil).TensorID(v); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&m1)
				heap = min(heap, m1.HeapAlloc-m0.HeapAlloc)
				charge = v.COO().HeapBytes() + valueOverhead
				runtime.KeepAlive(v)
			}
			t.Logf("order %d %s: heap %d bytes, charged %d", len(dims), kind, heap, charge)
			if charge < int64(heap) {
				t.Errorf("order %d %s tensor: charged %d bytes, holds %d", len(dims), kind, charge, heap)
			}
			charges[kind] = charge
		}
		if charges["parsed"] != charges["decoded"] {
			t.Errorf("order %d: a parsed upload is charged %d bytes, its artifact-decoded twin %d",
				len(dims), charges["parsed"], charges["decoded"])
		}
	}
}

// chargedBundle is a statistics bundle resident in a store: its
// artifact bytes, the bundle, and the entry's charge beside the bytes.
type chargedBundle struct {
	data   []byte
	st     *stats.Stats
	charge int64
}

// residentBundles returns the statistics bundles resident in st by key.
func residentBundles(st *Store) map[string]chargedBundle {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := map[string]chargedBundle{}
	for k, el := range st.idx {
		e := el.Value.(*storeEntry)
		if b, ok := e.value.(*stats.Stats); ok {
			out[k] = chargedBundle{data: e.data, st: b, charge: e.size - int64(len(e.data))}
		}
	}
	return out
}

// twinCache is a StatsCache holding fixed bundles; it fails the test if
// a session asks for any other bundle.
type twinCache struct {
	t   *testing.T
	sts map[string]*stats.Stats
}

func (c twinCache) LoadStats(_ context.Context, key string) (*stats.Stats, bool) {
	st, ok := c.sts[key]
	if !ok {
		c.t.Errorf("twin session asked for bundle %s, which no server kept", key)
	}
	return st, ok
}
func (c twinCache) StoreStats(context.Context, string, *stats.Stats)           {}
func (c twinCache) LoadPartial(context.Context, string) (*stats.Partial, bool) { return nil, false }
func (c twinCache) StorePartial(context.Context, string, *stats.Partial)       {}
func (c twinCache) StoreMergedStats(context.Context, string, *stats.Stats)     {}

// TestStatsChargeCoversHeap: what the store charges for a statistics
// bundle beside its artifact is not below the heap the bundle holds, at
// orders 2–4, both fresh from a load (a stats query's bundle, whose
// shape memo stays empty) and after optimize requests at distinct
// buffers in one band have filled its shape and projection memos and
// its prediction table. The
// heap is measured on twins: bundles decoded from the same artifacts,
// their memos filled by the same optimizations in a session of their
// own; the least growth over three tries is taken, so other goroutines'
// allocations cannot inflate it.
func TestStatsChargeCoversHeap(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		kernel string
		big    string // the order-n operand, whose natural-order bundle a stats query loads
		dims   map[string][]int
		nnz    map[string]int
	}{
		{testKernel, "A", map[string][]int{"A": {900, 900}, "B": {900, 900}}, map[string]int{"A": 7000, "B": 7000}},
		{"X(i,j,k) = C(i,j,l) * B(k,l) | order: i,j,l,k", "C",
			map[string][]int{"C": {90, 80, 70}, "B": {60, 70}}, map[string]int{"C": 7000, "B": 900}},
		{"X(i,j,k,m) = C(i,j,k,l) * B(m,l) | order: i,j,k,l,m", "C",
			map[string][]int{"C": {36, 32, 30, 28}, "B": {24, 28}}, map[string]int{"C": 7000, "B": 300}},
	} {
		order := len(tc.dims[tc.big])
		s, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]string{}
		inputs := d2t2.Inputs{}
		for name, dims := range tc.dims {
			body := tnsBody(r, dims, tc.nnz[name])
			code, id := uploadRaw(s, body)
			if code != http.StatusOK {
				t.Fatalf("order %d upload %s: status %d: %s", order, name, code, id)
			}
			if inputs[name], err = parseUpload(context.Background(), false, []byte(body), 0); err != nil {
				t.Fatal(err)
			}
			ids[name] = id
		}
		k, err := d2t2.ParseKernel(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh: the first stats query collects the bundle, the second
		// loads it, and the third loads it again and keeps it.
		for i := 0; i < 3; i++ {
			req := httptest.NewRequest(http.MethodGet, "/v1/tensors/"+ids[tc.big]+"/stats?tile=8", nil)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("order %d stats: status %d: %s", order, rec.Code, rec.Body)
			}
		}
		checkBundleCharges(t, fmt.Sprintf("order %d fresh", order), residentBundles(s.store), nil)
		for key := range residentBundles(s.store) {
			evict(s.store, key)
		}

		// Filled: the first optimize collects, the second loads, and the
		// rest load, keep and price shapes on the kept bundles.
		var jobs []d2t2.Options
		for i := 0; i < 7; i++ {
			bw := denseSquareWords(16, order) + 97*i
			body := fmt.Sprintf(`{"kernel":%q,"inputs":%s,"bufferWords":%d}`, tc.kernel, mustJSON(t, ids), bw)
			if rec := serveRaw(s, "/v1/optimize", "application/json", body); rec.Code != http.StatusOK {
				t.Fatalf("order %d optimize: status %d: %s", order, rec.Code, rec.Body)
			}
			if i > 1 {
				jobs = append(jobs, d2t2.Options{BufferWords: bw, Workers: 1})
			}
		}
		if s.Metric("stats_resident_hits") == 0 {
			t.Fatalf("order %d: no optimize served a resident bundle", order)
		}
		checkBundleCharges(t, fmt.Sprintf("order %d filled", order), residentBundles(s.store), func(twins map[string]*stats.Stats) {
			var predictions atomic.Int64
			for _, st := range twins {
				st.ObserveTableRuns(func() { predictions.Add(1) })
			}
			sess := d2t2.NewSession(twinCache{t: t, sts: twins})
			for _, o := range jobs {
				if _, err := sess.OptimizeCtx(context.Background(), k, inputs, o); err != nil {
					t.Error(err)
				}
			}
			if predictions.Load() == 0 {
				t.Errorf("order %d: the twins' prediction tables stayed empty", order)
			}
		})
		s.Shutdown(context.Background())
	}
}

// checkBundleCharges fails unless the summed charge of the resident
// bundles covers the heap of their decoded twins, after fill (when
// non-nil) has run on the twins.
func checkBundleCharges(t *testing.T, what string, resident map[string]chargedBundle, fill func(map[string]*stats.Stats)) {
	t.Helper()
	if len(resident) == 0 {
		t.Fatalf("%s: no bundle resident", what)
	}
	var charge int64
	for _, b := range resident {
		charge += b.charge
	}
	decode := func() map[string]*stats.Stats {
		twins := map[string]*stats.Stats{}
		for key, b := range resident {
			a, err := snapshot.DecodeBytes(b.data)
			if err != nil {
				t.Fatal(err)
			}
			twins[key] = a.Stats
		}
		return twins
	}
	if fill != nil {
		fill(decode()) // first use: lazy set-up outside the measurement
	}
	var heap uint64 = 1 << 62
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		twins := decode()
		if fill != nil {
			fill(twins)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		if m1.HeapAlloc > m0.HeapAlloc {
			heap = min(heap, m1.HeapAlloc-m0.HeapAlloc)
		}
		runtime.KeepAlive(twins)
	}
	t.Logf("%s: %d bundles hold %d heap bytes, charged %d", what, len(resident), heap, charge)
	if charge < int64(heap) {
		t.Errorf("%s: %d bundles charged %d bytes, hold %d", what, len(resident), charge, heap)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// resident reports whether a value is kept under key, without marking
// the entry used.
func resident(st *Store, key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.idx[key]
	return ok && el.Value.(*storeEntry).value != nil
}

// evictByFilling uploads distinct small tensors until id's tensor is no
// longer resident in s's store.
func evictByFilling(t *testing.T, s *Server, id string) {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if !resident(s.store, id) {
			return
		}
		if code, msg := uploadRaw(s, tnsBody(r, []int{32, 32}, 96)); code != http.StatusOK {
			t.Fatalf("filler upload: status %d: %s", code, msg)
		}
	}
	t.Fatalf("tensor %s still resident after 1000 uploads", id)
}

// TestEvictedTensorReloads: with a disk layer, a tensor the LRU evicted
// reloads from disk, and the optimize response is byte-identical to a
// fresh server's.
func TestEvictedTensorReloads(t *testing.T) {
	fresh, id := newRungServer(t)
	body := `{"kernel":"` + testKernel + `","inputs":{"A":"` + id + `","B":"` + id + `"},"tile":8}`
	want := serveRaw(fresh, "/v1/optimize", "application/json", body)
	if want.Code != http.StatusOK {
		t.Fatalf("fresh optimize: status %d: %s", want.Code, want.Body)
	}

	s, _ := newTestServer(t, Config{MemCacheBytes: 64 << 10})
	if code, got := uploadRaw(s, rungMTX); code != http.StatusOK || got != id {
		t.Fatalf("upload: status %d, id %s", code, got)
	}
	evictByFilling(t, s, id)
	disk := s.Metric("artifact_disk_hits")
	got := serveRaw(s, "/v1/optimize", "application/json", body)
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("optimize after eviction: status %d:\n%s\nwant\n%s", got.Code, got.Body, want.Body)
	}
	if s.Metric("artifact_disk_hits") == disk {
		t.Fatal("the evicted tensor was not read from disk")
	}
	if !resident(s.store, id) {
		t.Fatal("the reloaded tensor is not resident")
	}
}

// TestEvictedTensorMemoryOnly: without a disk layer an evicted tensor is
// unknown — 404 naming the eviction, counted in artifact_misses — until
// it is uploaded again.
func TestEvictedTensorMemoryOnly(t *testing.T) {
	s, err := New(Config{MemCacheBytes: 64 << 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	_, id := uploadRaw(s, rungMTX)
	evictByFilling(t, s, id)

	misses := s.Metric("artifact_misses")
	req := httptest.NewRecorder()
	s.Handler().ServeHTTP(req, httptest.NewRequest(http.MethodGet, "/v1/tensors/"+id+"/stats?tile=8", nil))
	if req.Code != http.StatusNotFound || !strings.Contains(req.Body.String(), "evicted") {
		t.Fatalf("stats of an evicted tensor: status %d: %s", req.Code, req.Body)
	}
	if got := s.Metric("artifact_misses") - misses; got != 1 {
		t.Fatalf("artifact_misses moved by %d, want 1", got)
	}
	body := `{"kernel":"` + testKernel + `","inputs":{"A":"` + id + `","B":"` + id + `"},"tile":8}`
	if rec := serveRaw(s, "/v1/optimize", "application/json", body); rec.Code != http.StatusNotFound {
		t.Fatalf("optimize of an evicted tensor: status %d: %s", rec.Code, rec.Body)
	}
	if code, again := uploadRaw(s, rungMTX); code != http.StatusOK || again != id {
		t.Fatalf("re-upload: status %d, id %s", code, again)
	}
	if rec := serveRaw(s, "/v1/optimize", "application/json", body); rec.Code != http.StatusOK {
		t.Fatalf("optimize after re-upload: status %d: %s", rec.Code, rec.Body)
	}
}

// TestTensorArtifactUnderForeignAddress: a well-framed tensor artifact
// stored under another tensor's content address is refused, not served
// (and kept) under that address; the same bytes under their own address
// load.
func TestTensorArtifactUnderForeignAddress(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	r := rand.New(rand.NewSource(5))
	x, err := parseUpload(context.Background(), false, []byte(tnsBody(r, []int{32, 32}, 96)), 0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := parseUpload(context.Background(), false, []byte(tnsBody(r, []int{32, 32}, 96)), 0)
	if err != nil {
		t.Fatal(err)
	}
	sess := d2t2.NewSession(nil)
	idX, artX, err := sess.TensorArtifact(x)
	if err != nil {
		t.Fatal(err)
	}
	idY, err := sess.TensorID(y)
	if err != nil {
		t.Fatal(err)
	}
	optimize := func(id string) *httptest.ResponseRecorder {
		return serveRaw(s, "/v1/optimize", "application/json",
			`{"kernel":"`+testKernel+`","inputs":{"A":"`+id+`","B":"`+id+`"},"tile":8}`)
	}

	if err := s.store.Put(idY, artX); err != nil {
		t.Fatal(err)
	}
	if rec := optimize(idY); rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), idX) {
		t.Fatalf("optimize of %s holding %s: status %d: %s", idY, idX, rec.Code, rec.Body)
	}
	if resident(s.store, idY) {
		t.Fatal("the foreign tensor was kept under the address it does not hash to")
	}

	if err := s.store.Put(idX, artX); err != nil {
		t.Fatal(err)
	}
	if rec := optimize(idX); rec.Code != http.StatusOK {
		t.Fatalf("optimize of %s from its own artifact: status %d: %s", idX, rec.Code, rec.Body)
	}
	if !resident(s.store, idX) {
		t.Fatal("the reloaded tensor is not resident")
	}
}

// TestOverBudgetUpload: a memory-only server refuses with 413 an upload
// it could not keep resident, instead of accepting it and answering 404
// for it; with a disk layer the same upload is accepted.
func TestOverBudgetUpload(t *testing.T) {
	const budget = 32 << 10
	big := tnsBody(rand.New(rand.NewSource(4)), []int{500, 500}, 2000)
	s, err := New(Config{MemCacheBytes: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if code, msg := uploadRaw(s, big); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "memory budget") {
		t.Fatalf("over-budget upload: status %d: %s", code, msg)
	}
	if s.Metric("ingest_too_large") != 1 || s.Metric("ingest_errors") != 1 || s.Metric("tensors_registered") != 0 {
		t.Fatalf("ingest_too_large %d, ingest_errors %d, tensors_registered %d",
			s.Metric("ingest_too_large"), s.Metric("ingest_errors"), s.Metric("tensors_registered"))
	}
	if mb := s.store.MemBytes(); mb != 0 {
		t.Fatalf("a refused upload left %d bytes resident", mb)
	}
	// A delta whose combined tensor outgrows the budget is refused too.
	_, id := uploadRaw(s, rungMTX)
	base, err := d2t2.FromStream(strings.NewReader(rungMTX))
	if err != nil {
		t.Fatal(err)
	}
	held := map[[2]int]bool{}
	for p := 0; p < base.NNZ(); p++ {
		crd, _ := base.Entry(p)
		held[[2]int{crd[0], crd[1]}] = true
	}
	var delta deltaRequest
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			if !held[[2]int{i, j}] {
				delta.Crds, delta.Vals = append(delta.Crds, []int{i, j}), append(delta.Vals, 1)
			}
		}
	}
	body, _ := json.Marshal(delta)
	if rec := serveRaw(s, "/v1/tensors/"+id+"/delta", "application/json", string(body)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget delta: status %d: %s", rec.Code, rec.Body)
	}
	disk, _ := newTestServer(t, Config{MemCacheBytes: budget})
	if code, msg := uploadRaw(disk, big); code != http.StatusOK {
		t.Fatalf("over-budget upload with a disk layer: status %d: %s", code, msg)
	}
}

// TestSharedResidentBundleConcurrent: a bundle is kept from its second
// load on; then concurrent optimize requests, measured and not, at
// distinct buffers in one band price shapes and predict on the one
// resident bundle, at 1 and 8 workers. Every response is byte-identical
// to the same request on a fresh server; the requests fill the bundle's
// one prediction table with as many predictions as the same requests
// sent one at a time; afterwards each resident bundle is charged what
// it holds, and MemBytes is the sum of the entries' charges.
func TestSharedResidentBundleConcurrent(t *testing.T) {
	tns := tnsBody(rand.New(rand.NewSource(7)), []int{400, 400}, 3000)
	request := func(id string, i int, measure bool) string {
		return fmt.Sprintf(`{"kernel":%q,"inputs":{"A":%q,"B":%q},"bufferWords":%d,"measure":%t}`,
			testKernel, id, id, denseSquareWords(16, 2)+97*i, measure)
	}
	upload := func(s *Server) string {
		t.Helper()
		code, id := uploadRaw(s, tns)
		if code != http.StatusOK {
			t.Fatalf("upload: status %d: %s", code, id)
		}
		return id
	}
	var bodies []string
	want := map[string]string{}
	for i := 0; i < 6; i++ {
		for _, measure := range []bool{false, true} {
			fresh, err := New(Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			body := request(upload(fresh), i, measure)
			rec := serveRaw(fresh, "/v1/optimize", "application/json", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("fresh optimize: status %d: %s", rec.Code, rec.Body)
			}
			bodies, want[body] = append(bodies, body), rec.Body.String()
			fresh.Shutdown(context.Background())
		}
	}

	// warmUp uploads the tensor: the first request collects the bundle,
	// the second loads it once and leaves it, the third loads it again
	// and keeps it.
	warmUp := func(workers int) (*Server, string) {
		t.Helper()
		s, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		id := upload(s)
		for n, i := range []int{6, 7, 8} {
			if rec := serveRaw(s, "/v1/optimize", "application/json", request(id, i, false)); rec.Code != http.StatusOK {
				t.Fatalf("workers=%d warm-up: status %d: %s", workers, rec.Code, rec.Body)
			}
			if got, want := len(residentBundles(s.store)), n/2; got != want {
				t.Fatalf("workers=%d: %d bundles resident after warm-up request %d, want %d", workers, got, n+1, want)
			}
		}
		return s, id
	}
	serial, _ := warmUp(1)
	computed := serial.Metric("predictions_computed")
	for _, body := range bodies {
		if rec := serveRaw(serial, "/v1/optimize", "application/json", body); rec.Code != http.StatusOK {
			t.Fatalf("serial %s: status %d: %s", body, rec.Code, rec.Body)
		}
	}
	computed = serial.Metric("predictions_computed") - computed
	serial.Shutdown(context.Background())
	if computed == 0 {
		t.Fatal("the requests computed no prediction; the test shows nothing")
	}

	for _, workers := range []int{1, 8} {
		s, _ := warmUp(workers)
		hits, predictions := s.Metric("stats_resident_hits"), s.Metric("predictions_computed")
		var wg sync.WaitGroup
		for _, body := range bodies {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				rec := serveRaw(s, "/v1/optimize", "application/json", body)
				if rec.Code != http.StatusOK || rec.Body.String() != want[body] {
					t.Errorf("workers=%d %s: status %d:\n%s\nwant (fresh server)\n%s", workers, body, rec.Code, rec.Body, want[body])
				}
			}(body)
		}
		wg.Wait()
		if got := s.Metric("stats_resident_hits") - hits; got != int64(len(bodies)) {
			t.Errorf("workers=%d: %d of %d requests were served the resident bundle", workers, got, len(bodies))
		}
		if got := s.Metric("predictions_computed") - predictions; got != computed {
			t.Errorf("workers=%d: the concurrent requests computed %d predictions, sent one at a time %d", workers, got, computed)
		}
		for key, b := range residentBundles(s.store) {
			if want := b.st.HeapBytes() + valueOverhead; b.charge != want {
				t.Errorf("workers=%d bundle %s: charged %d bytes, holds %d", workers, key, b.charge, want)
			}
		}
		s.store.mu.Lock()
		var sum int64
		for _, el := range s.store.idx {
			sum += el.Value.(*storeEntry).size
		}
		if sum != s.store.cur {
			t.Errorf("workers=%d: MemBytes %d, entries charged %d", workers, s.store.cur, sum)
		}
		s.store.mu.Unlock()
		s.Shutdown(context.Background())
	}
}

// TestResidentPredictionsReused: predictions outlive the request that
// computed them. Once the bundle is resident, an optimize computes its
// predictions into the bundle's table, and a second request that runs
// the same search (the same buffer, now measured) computes none; its
// response is byte-identical to the same request on a fresh server.
func TestResidentPredictionsReused(t *testing.T) {
	tns := tnsBody(rand.New(rand.NewSource(8)), []int{300, 300}, 2500)
	request := func(id string, bw int, measure bool) string {
		return fmt.Sprintf(`{"kernel":%q,"inputs":{"A":%q,"B":%q},"bufferWords":%d,"measure":%t}`,
			testKernel, id, id, bw, measure)
	}
	bw := denseSquareWords(16, 2) + 51

	fresh, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	code, id := uploadRaw(fresh, tns)
	if code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", code, id)
	}
	want := serveRaw(fresh, "/v1/optimize", "application/json", request(id, bw, true))
	fresh.Shutdown(context.Background())
	if want.Code != http.StatusOK {
		t.Fatalf("fresh optimize: status %d: %s", want.Code, want.Body)
	}

	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	uploadRaw(s, tns)
	// Collect, load, then load and keep the bundle.
	for i := 1; i <= 3; i++ {
		if rec := serveRaw(s, "/v1/optimize", "application/json", request(id, bw+97*i, false)); rec.Code != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
		}
	}
	if len(residentBundles(s.store)) != 1 {
		t.Fatal("the warm-up left no bundle resident")
	}
	for _, measure := range []bool{false, true} {
		before := s.Metric("predictions_computed")
		rec := serveRaw(s, "/v1/optimize", "application/json", request(id, bw, measure))
		if rec.Code != http.StatusOK {
			t.Fatalf("measure=%t: status %d: %s", measure, rec.Code, rec.Body)
		}
		computed := s.Metric("predictions_computed") - before
		switch {
		case !measure && computed == 0:
			t.Fatal("the first request computed no prediction; the test shows nothing")
		case measure && computed != 0:
			t.Errorf("the second request computed %d predictions on the resident bundle", computed)
		case measure && rec.Body.String() != want.Body.String():
			t.Errorf("the second request served\n%s\nwant (fresh server)\n%s", rec.Body, want.Body)
		}
	}
}
