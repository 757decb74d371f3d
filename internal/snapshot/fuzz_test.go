package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"d2t2/internal/einsum"
	"d2t2/internal/model"
	"d2t2/internal/stats"
)

// FuzzSnapshotDecode checks the decoder never panics on arbitrary input
// and that anything it accepts is canonical: a stream whose sections are
// all known re-encodes to exactly its own bytes, and for any accepted
// stream re-encoding is a fixed point (the first re-encode may
// legitimately drop unknown sections). An
// accepted statistics accumulator must also Finalize without panicking,
// and an accepted statistics bundle must price without panicking (see
// priceStats): d2t2d finalizes and prices stored artifacts on pool
// workers that do not recover.
func FuzzSnapshotDecode(f *testing.F) {
	full := testArtifact(f)
	if b, err := EncodeBytes(full); err == nil {
		f.Add(b)
	}
	if p, err := stats.CollectPartialCtx(context.Background(), full.Tensor, []int{16, 16}, []int{1, 0}, &stats.Options{MicroDiv: 4}); err == nil {
		if b, err := EncodeBytes(&Artifact{Partial: p}); err == nil {
			f.Add(b)
		}
		// A shift far past the grid: Finalize's tile correlations would
		// run O(grid × shift) if the decoder let it through.
		huge := *p
		huge.TileCorrMaxShift = 1 << 40
		if b, err := EncodeBytes(&Artifact{Partial: &huge}); err == nil {
			f.Add(b)
		}
	}
	// A tableless partial claiming 2^31-tile axes: past the per-axis tile
	// cap, Finalize would size its occupancy and tileCorrs by the grid.
	wide := &stats.Partial{
		Dims: []int{1<<31 - 1, 1<<31 - 1}, TileDims: []int{1, 1}, Order: []int{0, 1}, MicroDims: []int{1, 1},
		TileCorrMaxShift: 64, SkipExtensions: true, TileFibers: [][]int32{{}, {}},
	}
	if b, err := EncodeBytes(&Artifact{Partial: wide}); err == nil {
		f.Add(b)
	}
	// A bundle with Dims [0, 64] (STAT opens with Dims: a count, then
	// Dims[0]): the analytic model divides by the tile dimension it
	// clamps to the zero-length axis.
	if b, err := EncodeBytes(&Artifact{Stats: full.Stats}); err == nil {
		binary.LittleEndian.PutUint64(b[headerLen+12+8:], 0)
		f.Add(withValidCRCs(b))
	}
	empty, _ := EncodeBytes(&Artifact{})
	f.Add(empty)
	resp, _ := EncodeBytes(&Artifact{Response: []byte(`{"ok":true}`)})
	f.Add(resp)
	f.Add([]byte(Magic))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, b []byte) {
		checkCanonical(t, b)
		// Mutated payloads almost never keep a valid CRC; checking a copy
		// with every checksum recomputed lets the fuzzer reach the section
		// decoders.
		checkCanonical(t, withValidCRCs(b))
	})
}

// checkCanonical asserts the decoder's contract on one input.
func checkCanonical(t *testing.T, b []byte) {
	a, err := DecodeBytes(b)
	if err != nil {
		return
	}
	if a.Partial != nil {
		_, _ = a.Partial.Finalize()
	}
	if a.Stats != nil {
		priceStats(a.Stats)
	}
	if a.Tensor != nil {
		// The address DecodeTensor reads off the payload is TensorID's.
		_, id, err := DecodeTensor(b)
		want, werr := TensorID(a.Tensor)
		if err != nil || werr != nil || id != want {
			t.Fatalf("DecodeTensor address %q (%v), TensorID %q (%v)", id, err, want, werr)
		}
	}
	enc, err := EncodeBytes(a)
	if err != nil {
		t.Fatalf("accepted artifact cannot re-encode: %v", err)
	}
	if knownSectionsOnly(b) && !bytes.Equal(enc, b) {
		t.Fatalf("decode then encode of a stream of known sections is not byte-identical: %d vs %d bytes", len(enc), len(b))
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
}

// priceStats prices a decoded bundle the way d2t2d does: its heap
// charge, shapes at the micro dims and at 2x and 4x them, a projection,
// and for a matrix an exact and an analytic SpMSpM prediction with the
// bundle as both operands. Errors are fine; panics are not.
func priceStats(st *stats.Stats) {
	_ = st.HeapBytes()
	micro := st.MicroDims()
	shape := make([]int, len(micro))
	for _, f := range []int{1, 2, 4} {
		for a, m := range micro {
			shape[a] = f * m
		}
		if sh, err := st.EvalShape(shape); err == nil && len(shape) > 1 {
			sh.Project([]int{0}, []int{len(shape) - 1})
		}
	}
	if len(st.Dims) != 2 {
		return
	}
	p, err := model.New(einsum.MustParse("C(i,j) = A(i,k) * B(k,j)"), map[string]*stats.Stats{"A": st, "B": st})
	if err != nil {
		return
	}
	cfg := model.Config{"i": st.BaseTileDims[0], "k": st.BaseTileDims[1], "j": st.BaseTileDims[1]}
	for _, mode := range []model.Mode{model.ModeExact, model.ModeAnalytic} {
		p.Mode = mode
		_, _ = p.Predict(cfg)
	}
}

// withValidCRCs returns a copy of b with the CRC of every section that
// frames within b recomputed.
func withValidCRCs(b []byte) []byte {
	b = slices.Clone(b)
	for off := len(Magic) + 4; off+12 <= len(b); {
		plen := binary.LittleEndian.Uint64(b[off+4:])
		if plen > uint64(len(b)-off-12) || uint64(len(b)-off-12)-plen < 4 {
			break
		}
		end := off + 12 + int(plen)
		binary.LittleEndian.PutUint32(b[end:], crc32.ChecksumIEEE(b[off+12:end]))
		off = end + 4
	}
	return b
}

// knownSectionsOnly reports whether every section of an accepted stream
// carries one of the codec's tags.
func knownSectionsOnly(b []byte) bool {
	for off := len(Magic) + 4; off < len(b); {
		if !slices.Contains(sectionOrder, string(b[off:off+4])) {
			return false
		}
		off += 12 + int(binary.LittleEndian.Uint64(b[off+4:])) + 4
	}
	return true
}
