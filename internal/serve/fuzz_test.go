package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
