package snapshot

import (
	"bytes"
	"testing"

	"d2t2/internal/stats"
)

// FuzzSnapshotDecode checks the decoder never panics on arbitrary input
// and that anything it accepts is canonical: re-encoding an accepted
// artifact must itself decode, and re-encoding *that* is a fixed point
// (the first re-encode may legitimately drop unknown sections). An
// accepted statistics accumulator must also Finalize without panicking:
// d2t2d finalizes stored partials on pool workers that do not recover.
func FuzzSnapshotDecode(f *testing.F) {
	full := testArtifact(f)
	if b, err := EncodeBytes(full); err == nil {
		f.Add(b)
	}
	if p, err := stats.CollectPartial(full.Tensor, []int{16, 16}, []int{1, 0}, &stats.Options{MicroDiv: 4}); err == nil {
		if b, err := EncodeBytes(&Artifact{Partial: p}); err == nil {
			f.Add(b)
		}
	}
	empty, _ := EncodeBytes(&Artifact{})
	f.Add(empty)
	resp, _ := EncodeBytes(&Artifact{Response: []byte(`{"ok":true}`)})
	f.Add(resp)
	f.Add([]byte(Magic))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeBytes(b)
		if err != nil {
			return
		}
		if a.Partial != nil {
			_, _ = a.Partial.Finalize()
		}
		enc, err := EncodeBytes(a)
		if err != nil {
			t.Fatalf("accepted artifact cannot re-encode: %v", err)
		}
		a2, err := DecodeBytes(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		enc2, err := EncodeBytes(a2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point: %d vs %d bytes", len(enc), len(enc2))
		}
	})
}
