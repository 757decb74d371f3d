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
	"slices"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/raceflag"
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
	st, tiled, err := stats.CollectCtx(context.Background(), m, []int{16, 16}, nil, &stats.Options{MicroDiv: 8})
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
	if !reflect.DeepEqual(got.Stats, a.Stats) {
		t.Errorf("statistics bundle did not round-trip")
	}
	if got.Tiled.NNZ != a.Tiled.NNZ || got.Tiled.MaxFootprint != a.Tiled.MaxFootprint ||
		len(got.Tiled.Tiles) != len(a.Tiled.Tiles) {
		t.Errorf("tiled tensor did not round-trip: nnz %d/%d tiles %d/%d",
			got.Tiled.NNZ, a.Tiled.NNZ, len(got.Tiled.Tiles), len(a.Tiled.Tiles))
	}
}

// goldenArtifacts returns one artifact per section kind and one with
// every section: testArtifact plus a partial collected at [16,16],
// order [1,0], MicroDiv 4, which fills every optional partial field.
func goldenArtifacts(t testing.TB) map[string]*Artifact {
	t.Helper()
	full := testArtifact(t)
	p, err := stats.CollectPartialCtx(context.Background(), full.Tensor, []int{16, 16}, []int{1, 0}, &stats.Options{MicroDiv: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.ElemCounts == nil || p.Sketches == nil || len(p.CorrOff) == 0 || len(p.TileFibers) == 0 {
		t.Fatal("the partial leaves an optional field empty")
	}
	if full.Stats.ElemCounts == nil || full.Stats.PairSketch == nil || len(full.Stats.Corrs) == 0 ||
		full.Stats.MicroDims() == nil {
		t.Fatal("the statistics leave an optional field empty")
	}
	all := *full
	all.Partial = p
	return map[string]*Artifact{
		"TENS": {Tensor: full.Tensor},
		"TILE": {Tiled: full.Tiled},
		"STAT": {Stats: full.Stats},
		"PART": {Partial: p},
		"RESP": {Response: full.Response},
		"all":  &all,
	}
}

// TestEncodeGolden pins the bytes of every section kind, alone and
// together: content addresses and peers depend on them, so a codec
// change that moved one byte fails here. Each decodes back to the value
// it encodes, unexported statistics fields included.
func TestEncodeGolden(t *testing.T) {
	golden := map[string]struct {
		n   int
		sum string
	}{
		"TENS": {6220, "c1282b2a37638b1c46cf29611637921bc00803ca862c90ebdb517fd6be0791fa"},
		"TILE": {4192, "d9bcb14d89dacb84bcfd136fc92e1e4ac98ce9303795c11505dd790eebbe9e74"},
		"STAT": {3583, "9cf2e9ec10a652a8d2081fb70ca4f5d28ea6c849dd97540f1603daa6b62a0acf"},
		"PART": {9935, "10c31ea62a12beb56ba0fb19a2df2a29a093738aca0e8f5f47ee96e48a0585a7"},
		"RESP": {48, "0f61cefc91b0b6181942b8ccd5c3d01a3da6563a6ebbc76405df0e2f67ef330c"},
		"all":  {23930, "819cac9b70b7f0075b601f9003633bd587ab2c139cb48096eb213475d5cc9367"},
	}
	for name, a := range goldenArtifacts(t) {
		b, err := EncodeBytes(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		if got, want := hex.EncodeToString(sum[:]), golden[name]; len(b) != want.n || got != want.sum {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s", name, len(b), got, want.n, want.sum)
		}
		if got, err := DecodeBytes(b); err != nil || !reflect.DeepEqual(got, a) {
			t.Errorf("%s does not decode to the encoded artifact (%v)", name, err)
		}
	}
}

// TestEncodeSizedExactly: EncodeBytes returns a buffer with no spare
// capacity, since a store charges an artifact at its length — for every
// section kind, alone and together.
func TestEncodeSizedExactly(t *testing.T) {
	for name, a := range goldenArtifacts(t) {
		b, err := EncodeBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != cap(b) {
			t.Errorf("%s: encoded %d bytes into a %d-byte buffer", name, len(b), cap(b))
		}
	}
}

// TestEncodeAllocs is the allocation gate for the encoder: TENS, STAT
// and PART are sized by a walk over their fields and written in place,
// so each costs the output buffer alone.
func TestEncodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	arts := goldenArtifacts(t)
	for _, tc := range []struct {
		name    string
		ceiling float64
	}{{"TENS", 1}, {"STAT", 2}, {"PART", 1}, {"RESP", 1}} {
		a := arts[tc.name]
		got := testing.AllocsPerRun(20, func() {
			if _, err := EncodeBytes(a); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s: %v allocations per EncodeBytes, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// TestPrefixes checks the framing invariant: any strict prefix of a
// snapshot either fails to decode or — when it ends exactly on a section
// boundary — decodes to an artifact whose re-encoding is that prefix.
// TestDecodeRejectsAxesOutOfBounds: a statistics bundle with a 0 in Dims
// or BaseTileDims, or a base grid past the tiler's per-axis cap, is
// rejected. The analytic model divides by the tile dimension it clamps
// to an axis (a panic on a zero-length axis) and walks up to the grid's
// extent (seconds on a 2^34-long axis).
func TestDecodeRejectsAxesOutOfBounds(t *testing.T) {
	b, err := EncodeBytes(&Artifact{Stats: testArtifact(t).Stats})
	if err != nil {
		t.Fatal(err)
	}
	// The STAT payload opens with Dims then BaseTileDims, each a count
	// and two i64s.
	payload := headerLen + 12
	for _, c := range []struct {
		name string
		off  int
		v    uint64
	}{
		{"Dims[0] = 0", payload + 8, 0},
		{"BaseTileDims[1] = 0", payload + 24 + 16, 0},
		{"Dims[0] = 2^34", payload + 8, 1 << 34},
	} {
		bad := slices.Clone(b)
		binary.LittleEndian.PutUint64(bad[c.off:], c.v)
		if _, err := DecodeBytes(withValidCRCs(bad)); err == nil {
			t.Errorf("a bundle with %s decoded", c.name)
		}
	}
}

// TestDecodeRejectsMicrolessStats: a statistics bundle without its micro
// summary is rejected. Every collection keeps one, and the exact model
// snaps tile shapes to it, so such a bundle would panic there.
func TestDecodeRejectsMicrolessStats(t *testing.T) {
	st := testArtifact(t).Stats
	b, err := EncodeBytes(&Artifact{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := st.EvalShape(st.MicroDims())
	if err != nil {
		t.Fatal(err)
	}
	// The payload ends with the micro summary: its presence flag, three
	// per-axis Ints, the keys (U64s), nnz and footprints (I32s), and the
	// footprint scale. Clear the flag and drop the rest.
	n, k := len(st.Dims), sh.NumTiles
	micro := 1 + 3*(8+8*n) + (8 + 8*k) + 2*(8+4*k) + 8
	payload := b[headerLen+12 : len(b)-4]
	cut := append(slices.Clone(payload[:len(payload)-micro]), 0)
	if _, err := DecodeBytes(appendSection(appendHeader(nil), tagStats, cut)); err == nil {
		t.Fatal("a bundle without its micro summary decoded")
	}
	// The same cut with the flag set and the summary kept is the input.
	if _, err := DecodeBytes(appendSection(appendHeader(nil), tagStats, append(cut[:len(cut)-1], payload[len(payload)-micro:]...))); err != nil {
		t.Fatalf("the uncut bundle does not decode: %v", err)
	}
}

// TestDecodeRejectsUnsortedLists: tiles and Corrs axes are written in
// ascending order, so a stream holding them in another order is not
// canonical and is rejected; it used to decode and re-encode to other
// bytes.
func TestDecodeRejectsUnsortedLists(t *testing.T) {
	full := testArtifact(t)

	// TILE with its tiles in descending key order.
	tt := full.Tiled
	keys := tt.SortedKeys()
	c := wire.Appender(nil)
	c.Ints(&tt.Dims)
	c.Ints(&tt.TileDims)
	c.Ints(&tt.Order)
	c.Len(len(keys), 0)
	for i := len(keys) - 1; i >= 0; i-- {
		tile := tt.Tiles[keys[i]]
		c.Ints(&tile.Outer)
		tile.CSF.Code(&c)
	}
	if _, err := DecodeBytes(appendSection(appendHeader(nil), tagTiled, c.Bytes())); err == nil {
		t.Error("tiles out of key order decoded")
	}

	// STAT with its first two Corrs axes, 0 and 1, relabeled 1 and 0.
	// Corrs follows three per-axis Ints, four scalars and two per-level
	// F64s, each list a count and two elements.
	st := full.Stats
	b, err := EncodeBytes(&Artifact{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	first := headerLen + 12 + 3*24 + 4*8 + 2*24 + 8
	second := first + 16 + 8*len(st.Corrs[0])
	binary.LittleEndian.PutUint64(b[first:], 1)
	binary.LittleEndian.PutUint64(b[second:], 0)
	if _, err := DecodeBytes(withValidCRCs(b)); err == nil {
		t.Error("Corrs axes out of order decoded")
	}
}

// appendSection appends a section framing payload under tag, known or
// not: the tag, the payload length, the payload and its CRC.
func appendSection(buf []byte, tag string, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(append(buf, tag...), uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(append(buf, payload...), crc32.ChecksumIEEE(payload))
}

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

// TestKeysGolden pins the content addresses StatsKey, PartialKey and
// ResponseKey derive: artifacts on disk and on peers are found by them,
// so their preimages must not change with how they are built. The
// values were computed by the fmt-based derivation they replace.
func TestKeysGolden(t *testing.T) {
	id := "sha256:9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	for _, tc := range []struct {
		tileDims, order []int
		microDiv        int
		stats, partial  string
	}{
		{[]int{16, 16}, []int{0, 1}, 8,
			"sha256:80e988f3726d7d0540bf1562c425429c05d8ffb0a9a58a8399cd0543d6800264",
			"sha256:b916adca7c729b9ce99a0c6097dc825282eb17c8a9b27f9ab7f9c34124b151b9"},
		{[]int{4, 8, 128}, []int{2, 0, 1}, 16,
			"sha256:162de0a105adeffdbc5407388711130572648d678821cea3271675e8946ddd83",
			"sha256:8aad1df2c80c37ad3f9fe1ee894035d1cb049cd18e631c206114eca4e6e46b57"},
		{[]int{1 << 20, 3}, []int{1, 0}, 0,
			"sha256:345972dba1132512033c744a71fe08181038c84a7a32502c47ccf803815543d7",
			"sha256:2a3ecd8c25dd4fbeb3227e8cf379eee1227f47a2984e12ce65234f97408f7bcb"},
		{nil, []int{}, 1,
			"sha256:43116f3a7f9167e0c324338ed5910763b78fb4eb6bac409cbe61c0f7354408e8",
			"sha256:d2fc1a55b3aecd0705b2b5002f4d811e1d5bad055f9cb8a5cc6ab9bb92271274"},
	} {
		if got := StatsKey(id, tc.tileDims, tc.order, tc.microDiv); got != tc.stats {
			t.Errorf("StatsKey(%v, %v, %d) = %s, want %s", tc.tileDims, tc.order, tc.microDiv, got, tc.stats)
		}
		if got := PartialKey(id, tc.tileDims, tc.order, tc.microDiv); got != tc.partial {
			t.Errorf("PartialKey(%v, %v, %d) = %s, want %s", tc.tileDims, tc.order, tc.microDiv, got, tc.partial)
		}
	}
	for _, tc := range []struct {
		endpoint, canon, want string
	}{
		{"optimize", `{"kernel":"C(i,j) = A(i,k) * B(k,j) | order: i,k,j","inputs":{"A":"x","B":"y"},"bufferWords":32768}`,
			"sha256:6ce5adbaf91b1429151057b3313daf8376f426b10ff97388eaba43d21dfe4c7c"},
		{"predict", "{}", "sha256:9da958033aa4dd8d1e7493831078203ba6d8554db19d7af8f9be4ed83486b50c"},
		{"", "", "sha256:17d2af7dc70fb981e58fc30816590b219ff5962827f82193c7d280483e25ee87"},
	} {
		if got := ResponseKey(tc.endpoint, []byte(tc.canon)); got != tc.want {
			t.Errorf("ResponseKey(%q, %q) = %s, want %s", tc.endpoint, tc.canon, got, tc.want)
		}
	}
}

// TestKeyAllocs: deriving a statistics or partial address allocates
// only the returned string.
func TestKeyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	id := "sha256:9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	dims, order := []int{4, 8, 128}, []int{2, 0, 1}
	for name, key := range map[string]func(string, []int, []int, int) string{"StatsKey": StatsKey, "PartialKey": PartialKey} {
		if got := testing.AllocsPerRun(20, func() { key(id, dims, order, 16) }); got > 1 {
			t.Errorf("%s: %v allocations, ceiling 1", name, got)
		}
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
