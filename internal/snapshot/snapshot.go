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
// Each section's payload layout is written once, as a walk over its
// fields with a wire.Coder: codeTensor and codeTiled here, and
// formats.CSF.Code, stats.Stats.Code and stats.Partial.Code beside
// their types. The walk sizes, writes and reads the payload, and reading
// validates what it read.
//
// The package also defines the service's content addresses: TensorID is
// the SHA-256 of the canonical (sorted, deduplicated) COO encoding, and
// StatsKey/ResponseKey derive artifact keys from it.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"

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
// would be heap that no budget counts. Each section is sized by the walk
// that then writes it in place, so the buffer is allocated once.
func EncodeBytes(a *Artifact) ([]byte, error) {
	size := headerLen
	for _, tag := range sectionOrder {
		if a.has(tag) {
			c := wire.Sizer()
			a.code(tag, &c)
			if err := c.Err(); err != nil {
				return nil, err
			}
			size += sectionOverhead + c.Size()
		}
	}
	buf := appendHeader(make([]byte, 0, size))
	for _, tag := range sectionOrder {
		if a.has(tag) {
			buf = a.appendSection(buf, tag)
		}
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
	if len(b) < headerLen {
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
	off := headerLen
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
		i := slices.Index(sectionOrder, tag)
		if i < 0 {
			// Forward compatibility: unknown sections are checksummed but
			// otherwise ignored.
			continue
		}
		if i < last {
			return nil, nil, fmt.Errorf("snapshot: section %q out of order", tag)
		}
		last = i
		c := wire.Decoder(payload)
		a.code(tag, &c)
		if err := c.Err(); err != nil {
			return nil, nil, err
		}
		if c.Remaining() != 0 {
			return nil, nil, fmt.Errorf("snapshot: %d stray bytes after section %q", c.Remaining(), tag)
		}
		if tag == tagTensor {
			tens = payload
		}
	}
	return a, tens, nil
}

// headerLen is the stream header's length: magic, version, reserved.
const headerLen = len(Magic) + 4

// appendHeader appends the stream header.
func appendHeader(buf []byte) []byte {
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	return binary.LittleEndian.AppendUint16(buf, 0)
}

// sectionOverhead is what a section frames beyond its payload: the tag,
// the payload length and the CRC.
const sectionOverhead = 4 + 8 + 4

// appendSection appends a's section tag to buf, its payload written in
// place by the section's walk.
func (a *Artifact) appendSection(buf []byte, tag string) []byte {
	start := len(buf) + 12
	c := wire.Appender(binary.LittleEndian.AppendUint64(append(buf, tag...), 0))
	a.code(tag, &c)
	buf = c.Bytes()
	binary.LittleEndian.PutUint64(buf[start-8:], uint64(len(buf)-start))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// has reports whether a holds section tag.
func (a *Artifact) has(tag string) bool {
	switch tag {
	case tagTensor:
		return a.Tensor != nil
	case tagTiled:
		return a.Tiled != nil
	case tagStats:
		return a.Stats != nil
	case tagPartial:
		return a.Partial != nil
	}
	return a.Response != nil
}

// code walks the payload of section tag with c over a's field for it.
// Reading allocates the field first.
func (a *Artifact) code(tag string, c *wire.Coder) {
	read := c.Reading()
	switch tag {
	case tagTensor:
		if read {
			a.Tensor = new(tensor.COO)
		}
		codeTensor(c, a.Tensor)
	case tagTiled:
		if read {
			a.Tiled = new(tiling.TiledTensor)
		}
		codeTiled(c, a.Tiled)
	case tagStats:
		if read {
			a.Stats = new(stats.Stats)
		}
		a.Stats.Code(c)
	case tagPartial:
		if read {
			a.Partial = new(stats.Partial)
		}
		a.Partial.Code(c)
	case tagResponse:
		c.Rest(&a.Response)
	}
}

// codeTensor walks t's TENS layout: Dims, each axis's coordinates, then
// the values. Reading checks every coordinate against its dimension.
func codeTensor(c *wire.Coder, t *tensor.COO) {
	c.Ints(&t.Dims)
	n := len(t.Dims)
	if n < 1 || n > wire.MaxOrder {
		c.Fail(fmt.Errorf("snapshot: tensor order %d outside 1..%d", n, wire.MaxOrder))
		return
	}
	if c.Reading() {
		t.Crds = make([][]int, n)
	}
	for a := 0; a < n; a++ {
		c.Ints(&t.Crds[a])
	}
	c.F64s(&t.Vals)
	if !c.Reading() || c.Err() != nil {
		return
	}
	for a, crd := range t.Crds {
		if len(crd) != len(t.Vals) {
			c.Fail(fmt.Errorf("snapshot: axis %d has %d coordinates for %d values", a, len(crd), len(t.Vals)))
			return
		}
		if t.Dims[a] < 1 {
			c.Fail(fmt.Errorf("snapshot: tensor dimension %d on axis %d", t.Dims[a], a))
			return
		}
		for _, x := range crd {
			if x < 0 || x >= t.Dims[a] {
				c.Fail(fmt.Errorf("snapshot: coordinate %d out of range [0,%d) on axis %d", x, t.Dims[a], a))
				return
			}
		}
	}
}

// codeTiled walks tt's TILE layout: Dims, TileDims, Order, then the
// tile count and each tile in key order, its outer coordinates then its
// CSF. Reading reassembles the tensor from its tiles (tiling.FromTiles),
// which recomputes and validates every derived field.
func codeTiled(c *wire.Coder, tt *tiling.TiledTensor) {
	if tt.PackedFrom != nil {
		c.Fail(errPacked)
		return
	}
	c.Ints(&tt.Dims)
	c.Ints(&tt.TileDims)
	c.Ints(&tt.Order)
	if n := len(tt.Dims); n < 1 || n > wire.MaxOrder {
		c.Fail(fmt.Errorf("snapshot: tiled tensor order %d outside 1..%d", n, wire.MaxOrder))
		return
	}
	var keys []uint64
	if !c.Reading() {
		keys = tt.SortedKeys()
	}
	// Every tile frames more than a byte, so the bytes that remain bound
	// a read count before it sizes the tile list.
	tiles := make([]*tiling.Tile, c.Len(len(keys), c.Remaining()))
	for i := 0; i < len(tiles) && c.Err() == nil; i++ {
		if c.Reading() {
			tiles[i] = &tiling.Tile{CSF: new(formats.CSF)}
		} else if tiles[i] = tt.Tiles[keys[i]]; tiles[i].Members != nil || tiles[i].CSF == nil {
			c.Fail(errPacked)
			return
		}
		c.Ints(&tiles[i].Outer)
		tiles[i].CSF.Code(c)
	}
	if !c.Reading() || c.Err() != nil {
		return
	}
	read, err := tiling.FromTiles(tt.Dims, tt.TileDims, tt.Order, tiles)
	if err != nil {
		c.Fail(err)
		return
	}
	// Writing walks the tiles in key order, so reading demands it: a
	// stream in any other order would decode to bytes it is not.
	for i, k := range read.SortedKeys() {
		if read.Tiles[k] != tiles[i] {
			c.Fail(fmt.Errorf("snapshot: tile %d at %v is out of key order", i, tiles[i].Outer))
			return
		}
	}
	*tt = *read
}

var errPacked = fmt.Errorf("snapshot: packed super-tiles are not serializable")

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
	b, err := EncodeBytes(&Artifact{Tensor: t})
	if err != nil {
		return "", err
	}
	return contentID(tensorPayload(b)), nil
}

// TensorArtifact returns TensorID(t) and EncodeBytes(&Artifact{Tensor:
// t}) together, encoding t once: the ID hashes the payload the artifact
// frames. t must be canonical, as Dedup leaves it and as every tensor a
// Session registers is; it is not scanned to check, and for any other t
// the ID is not TensorID's.
func TensorArtifact(t *tensor.COO) (id string, artifact []byte, err error) {
	if artifact, err = EncodeBytes(&Artifact{Tensor: t}); err != nil {
		return "", nil, err
	}
	return contentID(tensorPayload(artifact)), artifact, nil
}

// tensorPayload returns the TENS payload of a tensor-only artifact.
func tensorPayload(b []byte) []byte { return b[headerLen+12 : len(b)-4] }

func contentID(payload []byte) string { return address(sha256.Sum256(payload)) }

// address renders a SHA-256 sum as a content address, "sha256:" + its
// hex digits, in one allocation.
func address(sum [sha256.Size]byte) string {
	var b [len("sha256:") + 2*sha256.Size]byte
	n := copy(b[:], "sha256:")
	hex.Encode(b[n:], sum[:])
	return string(b[:])
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
	return frameKey("stats", tensorID, tileDims, order, microDiv)
}

// PartialKey derives the content address of a mergeable statistics
// accumulator (a stats.Partial artifact) from the tensor ID and the
// collection frame — the same parameters StatsKey hashes, under a
// distinct prefix so finalized and accumulator artifacts never collide.
func PartialKey(tensorID string, tileDims, order []int, microDiv int) string {
	return frameKey("partial", tensorID, tileDims, order, microDiv)
}

// frameKey hashes kind|layout|tensorID|[tileDims]|[order]|microDiv,
// the lists space-separated in brackets (fmt's %v of an []int), built
// on the stack.
func frameKey(kind, tensorID string, tileDims, order []int, microDiv int) string {
	var buf [256]byte
	b := append(buf[:0], kind...)
	b = append(b, '|')
	b = append(b, tileKeyLayout...)
	b = append(b, '|')
	b = append(b, tensorID...)
	for _, list := range [2][]int{tileDims, order} {
		b = append(b, "|["...)
		for i, v := range list {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(microDiv), 10)
	return address(sha256.Sum256(b))
}

// ResponseKey derives the content address of a cached service response
// from the endpoint name and the canonicalized request body.
func ResponseKey(endpoint string, canonicalRequest []byte) string {
	h := sha256.New()
	io.WriteString(h, "resp|"+endpoint+"|")
	h.Write(canonicalRequest)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return address(sum)
}
