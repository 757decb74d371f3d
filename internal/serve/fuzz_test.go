package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"d2t2"
)

// FuzzCanonicalRequest decodes arbitrary bytes as an optimize or a
// predict request and runs them through the endpoint's one
// canonicalizer. For every accepted body:
//
//   - canonicalization is idempotent: the canonical bytes decode and
//     re-canonicalize to the same bytes and the same response key, so a
//     forwarded request (which carries the canonical bytes) keys exactly
//     as it did on the node that forwarded it;
//   - risk points never alias: another overflow_target in (0, 1), or a
//     toggled calibrate, always changes the key.
func FuzzCanonicalRequest(f *testing.F) {
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })

	id := `"sha256:` + string(bytes.Repeat([]byte("0"), 64)) + `"`
	inputs := `"inputs":{"A":` + id + `,"B":` + id + `}`
	for _, seed := range []struct {
		predict bool
		body    string
	}{
		{false, `{"kernel":"` + testKernel + `",` + inputs + `,"tile":32}`},
		{false, `{"kernel":"` + testKernel + `",` + inputs + `,"tile":32,"overflow_target":0.05}`},
		{false, `{"kernel":"` + testKernel + `",` + inputs + `,"tile":32,"overflow_target":0.05,"calibrate":true}`},
		{false, `{"kernel":"C(i,j) = A(i,k) * B(j,k) | order: i,j,k",` + inputs + `,"bufferWords":1187,"measure":true}`},
		{false, `{"kernel":"X(i,j,k) = C(i,j,l) * B(k,l)","inputs":{"C":` + id + `},"analytic":true,"disableCorrs":true,"skipResize":true}`},
		{false, `{"kernel":"` + testKernel + `",` + inputs + `,"tile":2324526529}`},
		{false, `{"kernel":"X(i,j,k) = C(i,j,l) * B(k,l)","inputs":{"C":` + id + `,"B":` + id + `},"tile":3538948}`},
		{false, `{"kernel":"` + testKernel + `",` + inputs + `,"bufferWords":9223372036854775807}`},
		{false, `{"kernel":"nonsense","inputs":{}}`},
		{false, `{`},
		{true, `{"kernel":"` + testKernel + `",` + inputs + `,"config":{"i":16,"k":16,"j":16},"statsTile":32}`},
		{true, `{"kernel":"` + testKernel + `",` + inputs + `,"config":{"i":16,"k":16,"j":16},"calibrate":true}`},
		{true, `{"kernel":"` + testKernel + `",` + inputs + `,"config":{},"overflow_target":0.5}`},
	} {
		f.Add(seed.predict, seed.body, 0.25)
	}

	f.Fuzz(func(t *testing.T, predict bool, body string, target float64) {
		canonicalize := func(b []byte) (*keyedJob, error) {
			if predict {
				var req predictRequest
				if err := decodeJSON(bytes.NewReader(b), &req); err != nil {
					return nil, err
				}
				return s.predictJob(req)
			}
			var req optimizeRequest
			if err := decodeJSON(bytes.NewReader(b), &req); err != nil {
				return nil, err
			}
			return s.optimizeJob(req)
		}
		j, err := canonicalize([]byte(body))
		if err != nil {
			return
		}
		again, err := canonicalize(j.canon)
		if err != nil {
			t.Fatalf("canonical bytes rejected: %s: %v", j.canon, err)
		}
		if !bytes.Equal(again.canon, j.canon) || again.key != j.key {
			t.Fatalf("canonicalization not idempotent:\n%s\n%s", j.canon, again.canon)
		}

		// Re-key the canonical request at another risk point.
		rekey := func(mutate func(target *float64, calibrate *bool)) string {
			t.Helper()
			var (
				b   []byte
				err error
			)
			if predict {
				var req predictRequest
				if err := json.Unmarshal(j.canon, &req); err != nil {
					t.Fatal(err)
				}
				mutate(&req.OverflowTarget, &req.Calibrate)
				b, err = json.Marshal(req)
			} else {
				var req optimizeRequest
				if err := json.Unmarshal(j.canon, &req); err != nil {
					t.Fatal(err)
				}
				mutate(&req.OverflowTarget, &req.Calibrate)
				b, err = json.Marshal(req)
			}
			if err != nil {
				t.Fatal(err)
			}
			moved, err := canonicalize(b)
			if err != nil {
				t.Fatalf("risk point rejected: %s: %v", b, err)
			}
			return moved.key
		}
		if rekey(func(_ *float64, calibrate *bool) { *calibrate = !*calibrate }) == j.key {
			t.Fatalf("toggling calibrate kept the key of %s", j.canon)
		}
		if target > 0 && target < 1 {
			var old float64
			key := rekey(func(tgt *float64, _ *bool) { old, *tgt = *tgt, target })
			if old != target && key == j.key {
				t.Fatalf("overflow_target %v shares the key of %s", target, j.canon)
			}
		}
	})
}

// FuzzRawRequestRung checks that the raw-request rung never serves
// bytes that differ from the canonical path. Each body goes twice to
// one long-lived server — the repeat of a cacheable request is a raw
// hit — and once to a fresh server. All three answers agree on status,
// body bytes and every X-D2T2-* header but X-D2T2-Cache. A calibrated
// request is stateful (its bias advances on every run), so only its
// status and headers are compared, and its repeat must never be served
// from a cache.
func FuzzRawRequestRung(f *testing.F) {
	shared, id := newRungServer(f)
	for _, seed := range rungBodies(id) {
		f.Add(seed.path == "/v1/predict", seed.body)
	}
	headers := []string{"Content-Type", "X-D2T2-Key", "X-D2T2-Risk", "X-D2T2-Version"}
	f.Fuzz(func(t *testing.T, predict bool, body string) {
		path := "/v1/optimize"
		if predict {
			path = "/v1/predict"
		}
		fresh, _ := newRungServer(t)
		first := serveRaw(shared, path, "application/json", body)
		repeat := serveRaw(shared, path, "application/json", body)
		cold := serveRaw(fresh, path, "application/json", body)
		calibrated := strings.HasSuffix(first.Header().Get("X-D2T2-Risk"), "calibrate")
		for _, got := range []*httptest.ResponseRecorder{repeat, cold} {
			if got.Code != first.Code {
				t.Fatalf("status %d vs %d for %q", got.Code, first.Code, body)
			}
			for _, h := range headers {
				if a, b := got.Header().Get(h), first.Header().Get(h); a != b {
					t.Fatalf("%s %q vs %q for %q", h, a, b, body)
				}
			}
			if !calibrated && !bytes.Equal(got.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("body differs for %q:\n%s\n%s", body, got.Body, first.Body)
			}
		}
		if repeat.Code == http.StatusOK {
			cache := repeat.Header().Get("X-D2T2-Cache")
			if calibrated != (cache != "hit") {
				t.Fatalf("repeat X-D2T2-Cache %q (calibrated %v) for %q", cache, calibrated, body)
			}
		}
	})
}

// newDeltaServer starts an in-process memory-only server with a small
// body limit and uploads deltaBaseMTX, returning the server and the
// matrix's content address.
func newDeltaServer(t testing.TB) (*Server, string) {
	t.Helper()
	s, err := New(Config{Workers: 1, MaxUploadBytes: rungUploadLimit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	code, id := uploadRaw(s, deltaBaseMTX)
	if code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", code, id)
	}
	return s, id
}

// FuzzDeltaRequest posts arbitrary bodies to POST /v1/tensors/{id}/delta
// against one small ingested matrix. No body may panic the handler or
// answer 5xx; a 200 must name the content address of base+delta built
// locally; and a 4xx must repeat byte for byte on a fresh server.
func FuzzDeltaRequest(f *testing.F) {
	shared, id := newDeltaServer(f)
	base, err := d2t2.FromStream(strings.NewReader(deltaBaseMTX))
	if err != nil {
		f.Fatal(err)
	}
	base.Normalize()
	for _, seed := range []string{
		`{"crds":[[0,1],[6,0]],"vals":[4,5],"tile":4}`,
		`{"crds":[[3,3]],"vals":[-0.5]}`,
		`{"crds":[],"vals":[]}`,
		`{"crds":[[7,7],[0,7]],"vals":[1e308,2],"tile":9223372036854775807}`,
		`{"crds":[[0,0]],"vals":[1]}`,
		`{"crds":[[3,3],[3,3]],"vals":[1,1]}`,
		`{"crds":[[1,2,3]],"vals":[1]}`,
		`{"crds":[[0,8]],"vals":[1]}`,
		`{"crds":[[-1,0]],"vals":[1]}`,
		`{"crds":[[3,3]],"vals":[1,2]}`,
		`{"crds":[[3,3]],"vals":[1],"tile":-1}`,
		`{"crds":[[3,3]],"vals":[1],"tlie":4}`,
		`{"crds":[[3.5,3]],"vals":[1]}`,
		`{"crds":[[3,3]],"vals":[1]} trailing`,
		`{"crds":[[3,3]],"vals":[1]}` + strings.Repeat(" ", rungUploadLimit),
	} {
		f.Add(seed)
	}
	path := "/v1/tensors/" + id + "/delta"
	f.Fuzz(func(t *testing.T, body string) {
		rec := serveRaw(shared, path, "application/json", body)
		if rec.Code >= 500 {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var req deltaRequest
			var resp deltaResponse
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatalf("accepted a body that does not decode: %q", body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			want := base.Clone()
			for e, crd := range req.Crds {
				if len(crd) != 2 || crd[0] < 0 || crd[0] >= 8 || crd[1] < 0 || crd[1] >= 8 {
					t.Fatalf("accepted entry %v of %q", crd, body)
				}
				want.Set(crd, req.Vals[e])
			}
			want.Normalize()
			if want.NNZ() != base.NNZ()+len(req.Crds) {
				t.Fatalf("accepted a colliding delta %q", body)
			}
			wantID, err := d2t2.NewSession(nil).TensorID(want)
			if err != nil {
				t.Fatal(err)
			}
			if resp.ID != wantID || resp.NNZ != want.NNZ() {
				t.Fatalf("delta %q: id %s nnz %d, built locally %s nnz %d", body, resp.ID, resp.NNZ, wantID, want.NNZ())
			}
			return
		}
		fresh, _ := newDeltaServer(t)
		again := serveRaw(fresh, path, "application/json", body)
		if again.Code != rec.Code || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("4xx not repeatable for %q: %d %s vs %d %s", body, rec.Code, rec.Body, again.Code, again.Body)
		}
	})
}
