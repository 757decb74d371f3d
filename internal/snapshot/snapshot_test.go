package snapshot

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/wire"
)

// testArtifact builds a small deterministic artifact with every section
// populated: a generated matrix, its conservative tiling, and the full
// collected statistics bundle.
func testArtifact(t testing.TB) *Artifact {
	t.Helper()
	d, err := gen.ByLabel("C")
	if err != nil {
		t.Fatalf("ByLabel: %v", err)
	}
	m := d.Build(1 << 20) // clamps to the generator's 64x64 floor
	st, tiled, err := stats.Collect(m, []int{16, 16}, nil, &stats.Options{MicroDiv: 8})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return &Artifact{
		Tensor:   m,
		Tiled:    tiled,
		Stats:    st,
		Response: []byte(`{"predictedMB":1.5}` + "\n"),
	}
}

func TestRoundTripByteIdentical(t *testing.T) {
	a := testArtifact(t)
	first, err := EncodeBytes(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeBytes(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	second, err := EncodeBytes(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("decode/encode is not byte-identical: %d vs %d bytes", len(first), len(second))
	}

	if !reflect.DeepEqual(got.Tensor, a.Tensor) {
		t.Errorf("tensor did not round-trip")
	}
	if !bytes.Equal(got.Response, a.Response) {
		t.Errorf("response did not round-trip")
	}
	if !reflect.DeepEqual(got.Stats.Portable(), a.Stats.Portable()) {
		t.Errorf("statistics bundle did not round-trip")
	}
	if got.Tiled.NNZ != a.Tiled.NNZ || got.Tiled.MaxFootprint != a.Tiled.MaxFootprint ||
		len(got.Tiled.Tiles) != len(a.Tiled.Tiles) {
		t.Errorf("tiled tensor did not round-trip: nnz %d/%d tiles %d/%d",
			got.Tiled.NNZ, a.Tiled.NNZ, len(got.Tiled.Tiles), len(a.Tiled.Tiles))
	}
}

// TestEncodeSizedExactly: EncodeBytes returns a buffer with no spare
// capacity, since a store charges an artifact at its length — for every
// section kind, alone and together, including a partial with every
// optional field.
func TestEncodeSizedExactly(t *testing.T) {
	full := testArtifact(t)
	p, err := stats.CollectPartialCtx(context.Background(), full.Tensor, []int{16, 16}, []int{0, 1}, &stats.Options{MicroDiv: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.ElemCounts == nil || p.Sketches == nil || len(p.CorrOff) == 0 || len(p.TileFibers) == 0 {
		t.Fatal("the partial leaves an optional field empty")
	}
	if full.Stats.ElemCounts == nil || full.Stats.PairSketch == nil || len(full.Stats.Corrs) == 0 {
		t.Fatal("the statistics leave an optional field empty")
	}
	all := *full
	all.Partial = p
	for name, a := range map[string]*Artifact{
		"tensor":   {Tensor: full.Tensor},
		"tiled":    {Tiled: full.Tiled},
		"stats":    {Stats: full.Stats},
		"partial":  {Partial: p},
		"response": {Response: full.Response},
		"all":      &all,
	} {
		b, err := EncodeBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != cap(b) {
			t.Errorf("%s: encoded %d bytes into a %d-byte buffer", name, len(b), cap(b))
		}
	}
	// The in-place sections are sized from their fields alone.
	sp := full.Stats.Portable()
	if got, want := statsSize(sp), len(appendStats(nil, sp)); got != want {
		t.Errorf("statsSize %d, STAT payload %d bytes", got, want)
	}
	if got, want := partialSize(p), len(appendPartial(nil, p)); got != want {
		t.Errorf("partialSize %d, PART payload %d bytes", got, want)
	}
}

// TestPrefixes checks the framing invariant: any strict prefix of a
// snapshot either fails to decode or — when it ends exactly on a section
// boundary — decodes to an artifact whose re-encoding is that prefix.
func TestPrefixes(t *testing.T) {
	full, err := EncodeBytes(testArtifact(t))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for i := 0; i < len(full); i++ {
		a, err := DecodeBytes(full[:i])
		if err != nil {
			continue
		}
		re, err := EncodeBytes(a)
		if err != nil {
			t.Fatalf("prefix %d decoded but re-encode failed: %v", i, err)
		}
		if !bytes.Equal(re, full[:i]) {
			t.Fatalf("prefix %d decoded to an artifact that re-encodes differently", i)
		}
	}
}

func TestDecodeTruncatedAndCorrupted(t *testing.T) {
	full, err := EncodeBytes(testArtifact(t))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	if _, err := DecodeBytes(full[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: got %v, want ErrTruncated", err)
	}
	if _, err := DecodeBytes(full[:len(full)-1]); err == nil {
		t.Errorf("clipped final CRC decoded without error")
	}

	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, err := DecodeBytes(bad); err == nil {
		t.Errorf("bad magic decoded without error")
	}

	bad = append([]byte(nil), full...)
	bad[len(Magic)] = 99 // format version
	if _, err := DecodeBytes(bad); err == nil {
		t.Errorf("unsupported version decoded without error")
	}

	// Flip one payload byte inside the first section; its CRC must catch it.
	bad = append([]byte(nil), full...)
	bad[len(Magic)+4+12] ^= 0x40
	if _, err := DecodeBytes(bad); err == nil {
		t.Errorf("corrupted payload decoded without error")
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	one, err := EncodeBytes(&Artifact{Response: []byte("x")})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	section := one[len(Magic)+4:]
	if _, err := DecodeBytes(append(append([]byte(nil), one...), section...)); err == nil {
		t.Fatalf("duplicate RESP section decoded without error")
	}
}

func TestUnknownSectionSkipped(t *testing.T) {
	base, err := EncodeBytes(&Artifact{Response: []byte("keep")})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	payload := []byte("from the future")
	ext := append([]byte(nil), base...)
	ext = append(ext, "FUTR"...)
	ext = binary.LittleEndian.AppendUint64(ext, uint64(len(payload)))
	ext = append(ext, payload...)
	ext = binary.LittleEndian.AppendUint32(ext, crc32.ChecksumIEEE(payload))

	a, err := DecodeBytes(ext)
	if err != nil {
		t.Fatalf("FUTR section not skipped: %v", err)
	}
	if string(a.Response) != "keep" {
		t.Fatal("known section lost while skipping FUTR")
	}

	// The unknown section's CRC is still verified.
	ext[len(ext)-6] ^= 1 // inside the payload
	if _, err := DecodeBytes(ext); err == nil {
		t.Fatal("corrupted FUTR section decoded without error")
	}
}

// TestRiskSectionSkippedByPreRiskReaders: artifacts written by earlier
// risk-aware writers carry a RISK section (payload version 1, overflow
// target, predicted overflow rate, calibrated flag) after the known
// sections. Nothing reads RISK any more, so such an artifact, even with
// a further future section after it, must decode to exactly the
// artifact without it.
func TestRiskSectionSkippedByPreRiskReaders(t *testing.T) {
	plain, err := EncodeBytes(testArtifact(t))
	if err != nil {
		t.Fatal(err)
	}
	risk := wire.AppendBool(wire.AppendF64(wire.AppendF64(wire.AppendU64(nil, 1), 0.01), 0.003), true)
	b := appendSection(append([]byte(nil), plain...), "RISK", risk)
	b = appendSection(b, "ZZZZ", []byte("future payload"))
	got, err := DecodeBytes(b)
	if err != nil {
		t.Fatalf("artifact with a RISK section did not decode: %v", err)
	}
	reenc, err := EncodeBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, plain) {
		t.Fatal("skipping RISK changed the known sections")
	}

	// A corrupted RISK payload still fails its CRC.
	b[len(plain)+12] ^= 1 // first payload byte
	if _, err := DecodeBytes(b); err == nil {
		t.Fatal("corrupted RISK section decoded without error")
	}
}

func TestTensorIDCanonical(t *testing.T) {
	a := tensor.New(8, 8)
	a.Append([]int{1, 2}, 1)
	a.Append([]int{3, 4}, 2)

	b := tensor.New(8, 8)
	b.Append([]int{3, 4}, 2)
	b.Append([]int{1, 2}, 0.5)
	b.Append([]int{1, 2}, 0.5) // duplicate sums to the same value

	ida, err := TensorID(a)
	if err != nil {
		t.Fatalf("TensorID: %v", err)
	}
	idb, err := TensorID(b)
	if err != nil {
		t.Fatalf("TensorID: %v", err)
	}
	if ida != idb {
		t.Errorf("equal contents produced different IDs:\n%s\n%s", ida, idb)
	}
	if b.NNZ() != 3 {
		t.Errorf("TensorID mutated its input: nnz %d", b.NNZ())
	}

	c := tensor.New(8, 8)
	c.Append([]int{1, 2}, 1)
	idc, err := TensorID(c)
	if err != nil {
		t.Fatalf("TensorID: %v", err)
	}
	if idc == ida {
		t.Errorf("different contents produced equal IDs")
	}
}

func TestKeysDiffer(t *testing.T) {
	id := "sha256:0000000000000000000000000000000000000000000000000000000000000000"
	keys := map[string]bool{
		StatsKey(id, []int{16, 16}, []int{0, 1}, 8): true,
		StatsKey(id, []int{16, 16}, []int{1, 0}, 8): true,
		StatsKey(id, []int{32, 32}, []int{0, 1}, 8): true,
		StatsKey(id, []int{16, 16}, []int{0, 1}, 4): true,
		ResponseKey("optimize", []byte("{}")):       true,
		ResponseKey("predict", []byte("{}")):        true,
	}
	if len(keys) != 6 {
		t.Fatalf("key collision: %d distinct keys, want 6", len(keys))
	}
}

// TestStatsKeysNameTheKeyLayout: stats and partial addresses changed
// with the tile-key layout, so an artifact stored under the 21-bit
// layout's addresses is never looked up, and never decoded as row-major
// keys.
func TestStatsKeysNameTheKeyLayout(t *testing.T) {
	id := "sha256:0000000000000000000000000000000000000000000000000000000000000000"
	legacy := func(kind string) string {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%v|%v|%d", kind, id, []int{16, 16}, []int{0, 1}, 8)))
		return "sha256:" + hex.EncodeToString(sum[:])
	}
	if StatsKey(id, []int{16, 16}, []int{0, 1}, 8) == legacy("stats") {
		t.Fatal("StatsKey still addresses 21-bit-layout artifacts")
	}
	if PartialKey(id, []int{16, 16}, []int{0, 1}, 8) == legacy("partial") {
		t.Fatal("PartialKey still addresses 21-bit-layout artifacts")
	}
}

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	a := testArtifact(b)
	enc, err := EncodeBytes(a)
	if err != nil {
		b.Fatalf("encode: %v", err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := EncodeBytes(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}
