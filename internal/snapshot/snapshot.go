// Package snapshot implements the versioned binary artifact codec behind
// the d2t2d optimizer service: it serializes the expensive products of
// the tile-and-collect phase — the original COO tensor, its conservative
// tiled-CSF partitioning, and the collected statistics bundle (SizeTile,
// MaxTile, PrTileIdx, ProbIndex, Corrs, TileCorrs, element histograms,
// pair sketches, micro summary) — so that any later shape/budget query
// can be answered without touching the raw data again (the paper's
// collect-once, query-many design).
//
// Wire format: an 8-byte magic ("D2T2SNAP"), a u16 format version, a u16
// reserved field, then a sequence of sections. Each section is framed as
// a 4-byte tag, a u64 little-endian payload length, the payload, and a
// u32 CRC32 (IEEE) of the payload. Unknown tags are skipped (their CRC
// is still verified), so newer writers stay readable by older readers.
// The encoding is canonical for streams whose sections are all known:
// decode followed by encode is byte-identical. An unknown section is
// dropped by that round trip, since an Artifact has nowhere to keep it.
//
// The package also defines the service's content addresses: TensorID is
// the SHA-256 of the canonical (sorted, deduplicated) COO encoding, and
// StatsKey/ResponseKey derive artifact keys from it.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"

	"d2t2/internal/formats"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
	"d2t2/internal/wire"
)

// Magic identifies a snapshot stream; Version is the current format.
const (
	Magic   = "D2T2SNAP"
	Version = 1
)

// Section tags. Each may appear at most once per snapshot, and known
// sections only in sectionOrder, the order EncodeBytes writes them.
const (
	tagTensor   = "TENS"
	tagTiled    = "TILE"
	tagStats    = "STAT"
	tagPartial  = "PART"
	tagResponse = "RESP"
)

var sectionOrder = []string{tagTensor, tagTiled, tagStats, tagPartial, tagResponse}

// ErrTruncated is wrapped by decode errors caused by input ending inside
// a frame — the signature of a torn write or a short read.
var ErrTruncated = fmt.Errorf("snapshot: truncated input")

// Artifact is one cacheable unit: any subset of a tensor, its tiled
// form, its statistics bundle, and an opaque response payload (cached
// service responses ride the same store). Nil fields are omitted from
// the encoding.
type Artifact struct {
	Tensor   *tensor.COO
	Tiled    *tiling.TiledTensor
	Stats    *stats.Stats
	Partial  *stats.Partial
	Response []byte
}

// EncodeBytes serializes the artifact into a buffer of exactly its
// length: stores charge an artifact at len(bytes), so spare capacity
// would be heap that no budget counts.
//
// Every section but TILE is sized from its fields' lengths and encoded
// in place, so the buffer is allocated once and no payload is copied.
func EncodeBytes(a *Artifact) ([]byte, error) {
	var tiled []byte
	if a.Tiled != nil {
		var err error
		if tiled, err = encodeTiled(a.Tiled); err != nil {
			return nil, err
		}
	}
	var sp *stats.Portable
	if a.Stats != nil {
		sp = a.Stats.Portable()
	}
	size := len(Magic) + 4
	if a.Tensor != nil {
		size += sectionOverhead + tensorSize(a.Tensor)
	}
	if tiled != nil {
		size += sectionOverhead + len(tiled)
	}
	if sp != nil {
		size += sectionOverhead + statsSize(sp)
	}
	if a.Partial != nil {
		size += sectionOverhead + partialSize(a.Partial)
	}
	if a.Response != nil {
		size += sectionOverhead + len(a.Response)
	}
	buf := appendHeader(make([]byte, 0, size))
	if a.Tensor != nil {
		var err error
		if buf, _, err = appendTensorSection(buf, a.Tensor); err != nil {
			return nil, err
		}
	}
	if tiled != nil {
		buf = appendSection(buf, tagTiled, tiled)
	}
	if sp != nil {
		buf, _ = appendFramed(buf, tagStats, func(b []byte) []byte { return appendStats(b, sp) })
	}
	if a.Partial != nil {
		buf, _ = appendFramed(buf, tagPartial, func(b []byte) []byte { return appendPartial(b, a.Partial) })
	}
	if a.Response != nil {
		buf = appendSection(buf, tagResponse, a.Response)
	}
	return buf, nil
}

// DecodeBytes parses a snapshot, verifying the magic, version, framing
// and every section CRC. Unknown sections are skipped; duplicate known
// sections are an error.
func DecodeBytes(b []byte) (*Artifact, error) {
	a, _, err := decode(b)
	return a, err
}

// DecodeTensor decodes a tensor artifact and returns its tensor with its
// content address, TensorID of the tensor. For a canonical tensor, as
// TensorArtifact writes it, the address hashes the TENS payload in b, so
// nothing is encoded again.
func DecodeTensor(b []byte) (*tensor.COO, string, error) {
	a, payload, err := decode(b)
	switch {
	case err != nil:
		return nil, "", err
	case a.Tensor == nil:
		return nil, "", fmt.Errorf("snapshot: artifact holds no tensor")
	case !a.Tensor.Canonical():
		id, err := TensorID(a.Tensor)
		return a.Tensor, id, err
	}
	return a.Tensor, contentID(payload), nil
}

// decode is DecodeBytes that also returns the TENS payload, if any.
func decode(b []byte) (*Artifact, []byte, error) {
	if len(b) < len(Magic)+4 {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrTruncated, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, nil, fmt.Errorf("snapshot: bad magic %q", b[:len(Magic)])
	}
	ver := binary.LittleEndian.Uint16(b[len(Magic):])
	if ver != Version {
		return nil, nil, fmt.Errorf("snapshot: unsupported format version %d (have %d)", ver, Version)
	}
	if res := binary.LittleEndian.Uint16(b[len(Magic)+2:]); res != 0 {
		return nil, nil, fmt.Errorf("snapshot: reserved header field is %d, want 0", res)
	}
	a := &Artifact{}
	var tens []byte
	seen := map[string]bool{}
	last := -1 // position in sectionOrder of the last known section
	off := len(Magic) + 4
	for off < len(b) {
		if len(b)-off < 12 {
			return nil, nil, fmt.Errorf("%w: %d trailing bytes cannot frame a section", ErrTruncated, len(b)-off)
		}
		tag := string(b[off : off+4])
		plen := binary.LittleEndian.Uint64(b[off+4 : off+12])
		off += 12
		// Compare in uint64 with the CRC width subtracted from the payload
		// side: remaining-4 would wrap when under 4 bytes are left, and a
		// wrapped bound admits any length (the slice below could then read
		// past len(b) into spare capacity of a shared backing array).
		if rem := uint64(len(b) - off); rem < 4 || plen > rem-4 {
			return nil, nil, fmt.Errorf("%w: section %q declares %d payload bytes, %d remain", ErrTruncated, tag, plen, len(b)-off)
		}
		payload := b[off : off+int(plen)]
		off += int(plen)
		sum := binary.LittleEndian.Uint32(b[off : off+4])
		off += 4
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, nil, fmt.Errorf("snapshot: section %q CRC mismatch: stored %08x, computed %08x", tag, sum, got)
		}
		if seen[tag] {
			return nil, nil, fmt.Errorf("snapshot: duplicate section %q", tag)
		}
		seen[tag] = true
		if i := slices.Index(sectionOrder, tag); i >= 0 {
			if i < last {
				return nil, nil, fmt.Errorf("snapshot: section %q out of order", tag)
			}
			last = i
		}
		var err error
		switch tag {
		case tagTensor:
			tens = payload
			a.Tensor, err = decodeTensor(payload)
		case tagTiled:
			a.Tiled, err = decodeTiled(payload)
		case tagStats:
			a.Stats, err = decodeStats(payload)
		case tagPartial:
			a.Partial, err = decodePartial(payload)
		case tagResponse:
			a.Response = append([]byte(nil), payload...)
		default:
			// Forward compatibility: unknown sections are checksummed but
			// otherwise ignored.
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return a, tens, nil
}

// appendHeader appends the stream header: magic, version, reserved.
func appendHeader(buf []byte) []byte {
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	return binary.LittleEndian.AppendUint16(buf, 0)
}

// sectionOverhead is what a section frames beyond its payload: the tag,
// the payload length and the CRC.
const sectionOverhead = 4 + 8 + 4

func appendSection(buf []byte, tag string, payload []byte) []byte {
	buf, _ = appendFramed(buf, tag, func(b []byte) []byte { return append(b, payload...) })
	return buf
}

// appendFramed appends one section to buf, its payload written in place
// by appendPayload, and returns where the payload starts.
func appendFramed(buf []byte, tag string, appendPayload func([]byte) []byte) ([]byte, int) {
	buf = append(buf, tag...)
	start := len(buf) + 8
	buf = appendPayload(binary.LittleEndian.AppendUint64(buf, 0))
	payload := buf[start:]
	binary.LittleEndian.PutUint64(buf[start-8:], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload)), start
}

// Encoded lengths of the wire package's length-prefixed slices: a u64
// count, then n elements of 8 (Ints, U64s, F64s), 4 (I32s) or 1 (Bools)
// bytes.
func size8(n int) int { return 8 + 8*n }
func size4(n int) int { return 8 + 4*n }
func size1(n int) int { return 8 + n }

// maxCodecOrder bounds the tensor order accepted by decoders, matching
// the formats codec.
const maxCodecOrder = 16

// --- TENS ---------------------------------------------------------------

// checkTensorOrder rejects a tensor whose order the codec cannot frame.
func checkTensorOrder(t *tensor.COO) error {
	if n := t.Order(); n < 1 || n > maxCodecOrder {
		return fmt.Errorf("snapshot: tensor order %d outside 1..%d", n, maxCodecOrder)
	}
	return nil
}

// appendTensor appends t's TENS payload to b.
func appendTensor(b []byte, t *tensor.COO) []byte {
	b = wire.AppendInts(b, t.Dims)
	for a := 0; a < t.Order(); a++ {
		b = wire.AppendInts(b, t.Crds[a])
	}
	return wire.AppendF64s(b, t.Vals)
}

// tensorSize is the length of t's TENS payload.
func tensorSize(t *tensor.COO) int { return 8 * (2 + 2*t.Order() + (t.Order()+1)*t.NNZ()) }

// appendTensorSection appends t's TENS section to buf, growing buf once
// to fit it, and returns where the payload starts.
func appendTensorSection(buf []byte, t *tensor.COO) ([]byte, int, error) {
	if err := checkTensorOrder(t); err != nil {
		return nil, 0, err
	}
	buf, start := appendFramed(slices.Grow(buf, sectionOverhead+tensorSize(t)), tagTensor,
		func(b []byte) []byte { return appendTensor(b, t) })
	return buf, start, nil
}

func decodeTensor(payload []byte) (*tensor.COO, error) {
	r := wire.NewReader(payload)
	dims := r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	n := len(dims)
	if n < 1 || n > maxCodecOrder {
		return nil, fmt.Errorf("snapshot: tensor order %d outside 1..%d", n, maxCodecOrder)
	}
	crds := make([][]int, n)
	for a := 0; a < n; a++ {
		crds[a] = r.Ints()
	}
	vals := r.F64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d stray bytes after tensor section", r.Remaining())
	}
	for a := 0; a < n; a++ {
		if len(crds[a]) != len(vals) {
			return nil, fmt.Errorf("snapshot: axis %d has %d coordinates for %d values", a, len(crds[a]), len(vals))
		}
		if dims[a] < 1 {
			return nil, fmt.Errorf("snapshot: tensor dimension %d on axis %d", dims[a], a)
		}
		for _, c := range crds[a] {
			if c < 0 || c >= dims[a] {
				return nil, fmt.Errorf("snapshot: coordinate %d out of range [0,%d) on axis %d", c, dims[a], a)
			}
		}
	}
	t := tensor.New(dims...)
	t.Crds = crds
	t.Vals = vals
	return t, nil
}

// --- TILE ---------------------------------------------------------------

func encodeTiled(tt *tiling.TiledTensor) ([]byte, error) {
	if tt.PackedFrom != nil {
		return nil, fmt.Errorf("snapshot: packed super-tiles are not serializable")
	}
	b := wire.AppendInts(nil, tt.Dims)
	b = wire.AppendInts(b, tt.TileDims)
	b = wire.AppendInts(b, tt.Order)
	keys := tt.SortedKeys()
	b = wire.AppendU64(b, uint64(len(keys)))
	for _, k := range keys {
		tile := tt.Tiles[k]
		if tile.Members != nil || tile.CSF == nil {
			return nil, fmt.Errorf("snapshot: packed super-tiles are not serializable")
		}
		b = wire.AppendInts(b, tile.Outer)
		b = tile.CSF.AppendBinary(b)
	}
	return b, nil
}

func decodeTiled(payload []byte) (*tiling.TiledTensor, error) {
	r := wire.NewReader(payload)
	dims := r.Ints()
	tileDims := r.Ints()
	order := r.Ints()
	numTiles := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(dims) < 1 || len(dims) > maxCodecOrder {
		return nil, fmt.Errorf("snapshot: tiled tensor order %d outside 1..%d", len(dims), maxCodecOrder)
	}
	// A tile frames at least a few dozen bytes; this cheap bound keeps a
	// corrupted count from preallocating an absurd slice.
	if numTiles > uint64(len(payload)) {
		return nil, fmt.Errorf("snapshot: tile count %d exceeds payload size", numTiles)
	}
	tiles := make([]*tiling.Tile, 0, numTiles)
	for i := uint64(0); i < numTiles; i++ {
		outer := r.Ints()
		if err := r.Err(); err != nil {
			return nil, err
		}
		csf, err := formats.DecodeCSF(r)
		if err != nil {
			return nil, err
		}
		tiles = append(tiles, &tiling.Tile{Outer: outer, CSF: csf})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d stray bytes after tiled section", r.Remaining())
	}
	return tiling.FromTiles(dims, tileDims, order, tiles)
}

// --- STAT ---------------------------------------------------------------

// statsSize is the length of p's STAT payload.
func statsSize(p *stats.Portable) int {
	n := size8(len(p.Dims)) + size8(len(p.BaseTileDims)) + size8(len(p.Order)) + 4*8 +
		size8(len(p.PrTileIdx)) + size8(len(p.ProbIndex))
	n += 8
	for _, c := range p.Corrs {
		n += 8 + size8(len(c))
	}
	n += 8
	for _, tc := range p.TileCorrs {
		n += size8(len(tc))
	}
	n++
	if p.ElemCounts != nil {
		n += 8
		for _, ec := range p.ElemCounts {
			n += size4(len(ec))
		}
	}
	n++
	if p.PairSketch != nil {
		n += 8
		for _, ps := range p.PairSketch {
			n += size8(len(ps))
		}
	}
	n += 8
	for _, occ := range p.Occupancy {
		n += size1(len(occ))
	}
	n++
	if m := p.Micro; m != nil {
		n += size8(len(m.Dims)) + size8(len(m.MicroDims)) + size8(len(m.OuterDims)) + size8(len(m.Keys)) +
			size4(len(m.NNZ)) + size4(len(m.Footprint)) + 8
	}
	return n
}

// appendStats appends p's STAT payload to b.
func appendStats(b []byte, p *stats.Portable) []byte {
	b = wire.AppendInts(b, p.Dims)
	b = wire.AppendInts(b, p.BaseTileDims)
	b = wire.AppendInts(b, p.Order)
	b = wire.AppendI64(b, int64(p.NNZ))
	b = wire.AppendF64(b, p.SizeTile)
	b = wire.AppendI64(b, int64(p.MaxTile))
	b = wire.AppendI64(b, int64(p.NumTiles))
	b = wire.AppendF64s(b, p.PrTileIdx)
	b = wire.AppendF64s(b, p.ProbIndex)

	axes := make([]int, 0, len(p.Corrs))
	for ax := range p.Corrs {
		axes = append(axes, ax)
	}
	sort.Ints(axes)
	b = wire.AppendU64(b, uint64(len(axes)))
	for _, ax := range axes {
		b = wire.AppendI64(b, int64(ax))
		b = wire.AppendF64s(b, p.Corrs[ax])
	}

	b = wire.AppendU64(b, uint64(len(p.TileCorrs)))
	for _, tc := range p.TileCorrs {
		b = wire.AppendF64s(b, tc)
	}

	b = wire.AppendBool(b, p.ElemCounts != nil)
	if p.ElemCounts != nil {
		b = wire.AppendU64(b, uint64(len(p.ElemCounts)))
		for _, ec := range p.ElemCounts {
			b = wire.AppendI32s(b, ec)
		}
	}
	b = wire.AppendBool(b, p.PairSketch != nil)
	if p.PairSketch != nil {
		b = wire.AppendU64(b, uint64(len(p.PairSketch)))
		for _, ps := range p.PairSketch {
			b = wire.AppendU64s(b, ps)
		}
	}

	b = wire.AppendU64(b, uint64(len(p.Occupancy)))
	for _, occ := range p.Occupancy {
		b = wire.AppendBools(b, occ)
	}

	b = wire.AppendBool(b, p.Micro != nil)
	if m := p.Micro; m != nil {
		b = wire.AppendInts(b, m.Dims)
		b = wire.AppendInts(b, m.MicroDims)
		b = wire.AppendInts(b, m.OuterDims)
		b = wire.AppendU64s(b, m.Keys)
		b = wire.AppendI32s(b, m.NNZ)
		b = wire.AppendI32s(b, m.Footprint)
		b = wire.AppendF64(b, m.FPScale)
	}
	return b
}

func decodeStats(payload []byte) (*stats.Stats, error) {
	r := wire.NewReader(payload)
	p := &stats.Portable{
		Dims:         r.Ints(),
		BaseTileDims: r.Ints(),
		Order:        r.Ints(),
		NNZ:          int(r.I64()),
		SizeTile:     r.F64(),
		MaxTile:      int(r.I64()),
		NumTiles:     int(r.I64()),
		PrTileIdx:    r.F64s(),
		ProbIndex:    r.F64s(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(p.Dims) > maxCodecOrder {
		return nil, fmt.Errorf("snapshot: stats order %d exceeds %d", len(p.Dims), maxCodecOrder)
	}

	nCorrs := r.U64()
	if nCorrs > uint64(maxCodecOrder) {
		return nil, fmt.Errorf("snapshot: %d corr axes exceeds %d", nCorrs, maxCodecOrder)
	}
	p.Corrs = make(map[int][]float64, nCorrs)
	for i := uint64(0); i < nCorrs && r.Err() == nil; i++ {
		ax := int(r.I64())
		curve := r.F64s()
		if _, dup := p.Corrs[ax]; dup {
			return nil, fmt.Errorf("snapshot: duplicate corr axis %d", ax)
		}
		p.Corrs[ax] = curve
	}

	nTC := r.U64()
	if nTC > uint64(maxCodecOrder) {
		return nil, fmt.Errorf("snapshot: %d tile-corr axes exceeds %d", nTC, maxCodecOrder)
	}
	p.TileCorrs = make([][]float64, 0, nTC)
	for i := uint64(0); i < nTC && r.Err() == nil; i++ {
		p.TileCorrs = append(p.TileCorrs, r.F64s())
	}

	if r.Bool() {
		n := r.U64()
		if n > uint64(maxCodecOrder) {
			return nil, fmt.Errorf("snapshot: %d element-count axes exceeds %d", n, maxCodecOrder)
		}
		p.ElemCounts = make([][]int32, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			p.ElemCounts = append(p.ElemCounts, r.I32s())
		}
	}
	if r.Bool() {
		n := r.U64()
		if n > uint64(maxCodecOrder) {
			return nil, fmt.Errorf("snapshot: %d pair-sketch axes exceeds %d", n, maxCodecOrder)
		}
		p.PairSketch = make([][]uint64, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			p.PairSketch = append(p.PairSketch, r.U64s())
		}
	}

	nOcc := r.U64()
	if nOcc > uint64(maxCodecOrder) {
		return nil, fmt.Errorf("snapshot: %d occupancy axes exceeds %d", nOcc, maxCodecOrder)
	}
	p.Occupancy = make([][]bool, 0, nOcc)
	for i := uint64(0); i < nOcc && r.Err() == nil; i++ {
		p.Occupancy = append(p.Occupancy, r.Bools())
	}

	if r.Bool() {
		p.Micro = &stats.PortableMicro{
			Dims:      r.Ints(),
			MicroDims: r.Ints(),
			OuterDims: r.Ints(),
			Keys:      r.U64s(),
			NNZ:       r.I32s(),
			Footprint: r.I32s(),
			FPScale:   r.F64(),
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d stray bytes after stats section", r.Remaining())
	}
	return stats.FromPortable(p)
}

// --- PART ---------------------------------------------------------------

// partialSize is the length of p's PART payload.
func partialSize(p *stats.Partial) int {
	n := size8(len(p.Dims)) + size8(len(p.TileDims)) + size8(len(p.Order)) + size8(len(p.MicroDims)) +
		size8(len(p.CorrAxes)) + size8(len(p.CorrMaxShift)) + 8 + 8 + 1 + 8
	n++
	if p.ElemCounts != nil {
		n += 8
		for _, ec := range p.ElemCounts {
			n += size4(len(ec))
		}
	}
	n++
	if p.Sketches != nil {
		n += 8
		for _, sk := range p.Sketches {
			n += size8(len(sk))
		}
	}
	n += 8
	for i := range p.CorrOff {
		n += size4(len(p.CorrOff[i])) + size8(len(p.CorrRest[i]))
	}
	n += size8(len(p.TileKeys)) + size4(len(p.TileNNZ)) + size4(len(p.TileFP)) + 8
	for _, f := range p.TileFibers {
		n += size4(len(f))
	}
	return n + size8(len(p.MicroKeys)) + size4(len(p.MicroNNZ)) + size4(len(p.MicroFP))
}

// appendPartial appends p's PART payload to b.
func appendPartial(b []byte, p *stats.Partial) []byte {
	b = wire.AppendInts(b, p.Dims)
	b = wire.AppendInts(b, p.TileDims)
	b = wire.AppendInts(b, p.Order)
	b = wire.AppendInts(b, p.MicroDims)
	b = wire.AppendInts(b, p.CorrAxes)
	b = wire.AppendInts(b, p.CorrMaxShift)
	b = wire.AppendI64(b, int64(p.CorrSampleTarget))
	b = wire.AppendI64(b, int64(p.TileCorrMaxShift))
	b = wire.AppendBool(b, p.SkipExtensions)
	b = wire.AppendI64(b, int64(p.NNZ))

	b = wire.AppendBool(b, p.ElemCounts != nil)
	if p.ElemCounts != nil {
		b = wire.AppendU64(b, uint64(len(p.ElemCounts)))
		for _, ec := range p.ElemCounts {
			b = wire.AppendI32s(b, ec)
		}
	}
	b = wire.AppendBool(b, p.Sketches != nil)
	if p.Sketches != nil {
		b = wire.AppendU64(b, uint64(len(p.Sketches)))
		for _, sk := range p.Sketches {
			b = wire.AppendU64s(b, sk)
		}
	}

	b = wire.AppendU64(b, uint64(len(p.CorrOff)))
	for i := range p.CorrOff {
		b = wire.AppendI32s(b, p.CorrOff[i])
		b = wire.AppendU64s(b, p.CorrRest[i])
	}

	b = wire.AppendU64s(b, p.TileKeys)
	b = wire.AppendI32s(b, p.TileNNZ)
	b = wire.AppendI32s(b, p.TileFP)
	b = wire.AppendU64(b, uint64(len(p.TileFibers)))
	for _, f := range p.TileFibers {
		b = wire.AppendI32s(b, f)
	}
	b = wire.AppendU64s(b, p.MicroKeys)
	b = wire.AppendI32s(b, p.MicroNNZ)
	return wire.AppendI32s(b, p.MicroFP)
}

func decodePartial(payload []byte) (*stats.Partial, error) {
	r := wire.NewReader(payload)
	p := &stats.Partial{
		Dims:             r.Ints(),
		TileDims:         r.Ints(),
		Order:            r.Ints(),
		MicroDims:        r.Ints(),
		CorrAxes:         r.Ints(),
		CorrMaxShift:     r.Ints(),
		CorrSampleTarget: int(r.I64()),
		TileCorrMaxShift: int(r.I64()),
		SkipExtensions:   r.Bool(),
		NNZ:              int(r.I64()),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(p.Dims) > maxCodecOrder {
		return nil, fmt.Errorf("snapshot: partial order %d exceeds %d", len(p.Dims), maxCodecOrder)
	}

	if r.Bool() {
		n := r.U64()
		if n > uint64(maxCodecOrder) {
			return nil, fmt.Errorf("snapshot: %d element-count axes exceeds %d", n, maxCodecOrder)
		}
		p.ElemCounts = make([][]int32, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			p.ElemCounts = append(p.ElemCounts, r.I32s())
		}
	}
	if r.Bool() {
		n := r.U64()
		if n > uint64(maxCodecOrder) {
			return nil, fmt.Errorf("snapshot: %d sketch axes exceeds %d", n, maxCodecOrder)
		}
		p.Sketches = make([][]uint64, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			p.Sketches = append(p.Sketches, r.U64s())
		}
	}

	nCorr := r.U64()
	if nCorr > uint64(maxCodecOrder) {
		return nil, fmt.Errorf("snapshot: %d corr accumulators exceeds %d", nCorr, maxCodecOrder)
	}
	p.CorrOff = make([][]int32, 0, nCorr)
	p.CorrRest = make([][]uint64, 0, nCorr)
	for i := uint64(0); i < nCorr && r.Err() == nil; i++ {
		p.CorrOff = append(p.CorrOff, r.I32s())
		p.CorrRest = append(p.CorrRest, r.U64s())
	}

	p.TileKeys = r.U64s()
	p.TileNNZ = r.I32s()
	p.TileFP = r.I32s()
	nFib := r.U64()
	if nFib > uint64(maxCodecOrder) {
		return nil, fmt.Errorf("snapshot: %d fiber levels exceeds %d", nFib, maxCodecOrder)
	}
	p.TileFibers = make([][]int32, 0, nFib)
	for i := uint64(0); i < nFib && r.Err() == nil; i++ {
		p.TileFibers = append(p.TileFibers, r.I32s())
	}
	p.MicroKeys = r.U64s()
	p.MicroNNZ = r.I32s()
	p.MicroFP = r.I32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d stray bytes after partial section", r.Remaining())
	}
	// Validate enforces every cross-field invariant (key ordering, offset
	// monotonicity, entry-count conservation), so a decoded partial is
	// safe to Merge and Finalize without re-deriving anything.
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// --- Content addresses ---------------------------------------------------

// TensorID returns the content address of a tensor: "sha256:" + the hex
// SHA-256 of the canonical (sorted, deduplicated) COO encoding. The
// input is not modified; an unnormalized tensor is canonicalized on a
// clone first, so equal tensor *contents* always produce equal IDs
// regardless of entry order or pending duplicates.
func TensorID(t *tensor.COO) (string, error) {
	if !t.Canonical() {
		t = t.Clone()
		t.Dedup()
	}
	if err := checkTensorOrder(t); err != nil {
		return "", err
	}
	return contentID(appendTensor(make([]byte, 0, tensorSize(t)), t)), nil
}

// TensorArtifact returns TensorID(t) and EncodeBytes(&Artifact{Tensor:
// t}) together. For a canonical t — every tensor a Session registers —
// the tensor is encoded once: the ID hashes the payload the artifact
// frames.
func TensorArtifact(t *tensor.COO) (id string, artifact []byte, err error) {
	b := appendHeader(nil)
	b, start, err := appendTensorSection(b, t)
	if err != nil {
		return "", nil, err
	}
	if t.Canonical() {
		id = contentID(b[start : len(b)-4])
	} else if id, err = TensorID(t); err != nil {
		return "", nil, err
	}
	return id, b, nil
}

func contentID(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// tileKeyLayout names the layout of the tile keys STAT and PART sections
// store (radix.Codec's row-major keys). It is part of every stats and
// partial address, so an artifact written under an earlier layout (21
// bits per axis) is never addressed, and never decoded under this one.
const tileKeyLayout = "keys=row-major"

// StatsKey derives the content address of a statistics artifact from the
// tensor ID and the collection parameters that shape it: the base tile
// dimensions, the CSF level order, and the micro-summary divisor, under
// the tile-key layout.
func StatsKey(tensorID string, tileDims, order []int, microDiv int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "stats|%s|%s|%v|%v|%d", tileKeyLayout, tensorID, tileDims, order, microDiv)
	sum := sha256.Sum256(b.Bytes())
	return "sha256:" + hex.EncodeToString(sum[:])
}

// PartialKey derives the content address of a mergeable statistics
// accumulator (a stats.Partial artifact) from the tensor ID and the
// collection frame — the same parameters StatsKey hashes, under a
// distinct prefix so finalized and accumulator artifacts never collide.
func PartialKey(tensorID string, tileDims, order []int, microDiv int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "partial|%s|%s|%v|%v|%d", tileKeyLayout, tensorID, tileDims, order, microDiv)
	sum := sha256.Sum256(b.Bytes())
	return "sha256:" + hex.EncodeToString(sum[:])
}

// ResponseKey derives the content address of a cached service response
// from the endpoint name and the canonicalized request body.
func ResponseKey(endpoint string, canonicalRequest []byte) string {
	h := sha256.New()
	io.WriteString(h, "resp|"+endpoint+"|")
	h.Write(canonicalRequest)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
