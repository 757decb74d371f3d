// Package wire provides the primitive byte-level encoding shared by the
// snapshot codec layers: little-endian fixed-width integers, IEEE-754
// float bits, and length-prefixed slices. Readers are error-latching —
// after the first malformed read every subsequent call returns zero
// values and Err() reports the original problem — so decoders can be
// written as straight-line code and check once at the end.
//
// A Coder walks a whole payload layout over these primitives in one of
// three modes (size, append, read), so each layout is written once and
// serves as its own sizer, encoder and decoder.
//
// Slice length prefixes are validated against the bytes actually
// remaining in the buffer before allocation, so a corrupted or
// adversarial length cannot drive a multi-gigabyte allocation (the fuzz
// targets lean on this).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends v as its two's-complement u64 bits.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends the IEEE-754 bits of v.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendInts appends a u64 count followed by each element as i64.
func AppendInts(b []byte, xs []int) []byte {
	b = AppendU64(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendI64(b, int64(x))
	}
	return b
}

// AppendI32s appends a u64 count followed by each element as 4 bytes.
func AppendI32s(b []byte, xs []int32) []byte {
	b = AppendU64(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendU32(b, uint32(x))
	}
	return b
}

// AppendU64s appends a u64 count followed by the raw elements.
func AppendU64s(b []byte, xs []uint64) []byte {
	b = AppendU64(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendU64(b, x)
	}
	return b
}

// AppendF64s appends a u64 count followed by the elements' float bits.
func AppendF64s(b []byte, xs []float64) []byte {
	b = AppendU64(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendF64(b, x)
	}
	return b
}

// AppendBytes appends a u64 count followed by the raw bytes — the
// framing the cluster peer protocol uses for keys and artifact
// payloads.
func AppendBytes(b []byte, xs []byte) []byte {
	b = AppendU64(b, uint64(len(xs)))
	return append(b, xs...)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBools appends a u64 count followed by one byte per element.
func AppendBools(b []byte, xs []bool) []byte {
	b = AppendU64(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendBool(b, x)
	}
	return b
}

// Reader decodes a buffer written with the Append helpers. Methods after
// a failed read return zero values; Err reports the first failure.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("wire: truncated input: need %d bytes at offset %d, have %d", n, r.off, r.Remaining())
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte written by AppendBool. Any byte but 0 or 1 is
// rejected: it would decode to a value that re-encodes to other bytes.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("wire: bool byte %d at offset %d is neither 0 nor 1", v, r.off-1)
		return false
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u64 length prefix and validates it against the bytes
// remaining at elemSize bytes per element.
func (r *Reader) count(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/elemSize) {
		r.fail("wire: length prefix %d exceeds remaining input (%d bytes, %d per element)",
			n, r.Remaining(), elemSize)
		return 0
	}
	return int(n)
}

// Ints reads a slice written by AppendInts. A nil slice is returned for
// count zero.
func (r *Reader) Ints() []int {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.I64())
	}
	return out
}

// I32s reads a slice written by AppendI32s. Every int32 D2T2 serializes
// is a coordinate or a segment offset, so negative encodings (values
// above math.MaxInt32) are rejected as corruption rather than
// reinterpreted.
func (r *Reader) I32s() []int32 {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		u := r.U32()
		if u > math.MaxInt32 {
			r.fail("wire: int32 element %d out of range (%d)", i, u)
			return nil
		}
		out[i] = int32(u)
	}
	return out
}

// U64s reads a slice written by AppendU64s.
func (r *Reader) U64s() []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// F64s reads a slice written by AppendF64s.
func (r *Reader) F64s() []float64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Bytes reads a slice written by AppendBytes. The returned slice
// aliases the reader's buffer — copy it if the buffer outlives the
// read. A nil slice is returned for count zero.
func (r *Reader) Bytes() []byte {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	return r.take(n)
}

// Bools reads a slice written by AppendBools.
func (r *Reader) Bools() []bool {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// MaxOrder bounds every per-axis count a walk reads: tensor orders, CSF
// levels and per-axis table lists. Far above any real kernel, it keeps a
// corrupted count from driving per-axis allocations.
const MaxOrder = 16

// Coder walks one payload layout in one of three modes: sizing it,
// appending it, or reading it. A layout written once as a walk — a
// function that hands each field to the Coder in order — is then its own
// sizer, encoder and decoder, so the three cannot drift apart. Every
// method takes a pointer to its field: sizing and appending read through
// it, reading stores the decoded value there. Reading latches the first
// error as Reader does; a walk may also Fail in any mode, and a failed
// walk's result is discarded.
type Coder struct {
	mode mode
	n    int    // sizing: bytes counted so far
	b    []byte // appending: the output so far
	r    Reader // reading: the input; in every mode, the latched error
}

type mode uint8

const (
	sizing mode = iota
	appending
	reading
)

// Sizer returns a Coder that counts the bytes a walk would append.
func Sizer() Coder { return Coder{mode: sizing} }

// Appender returns a Coder that appends a walk's bytes to b.
func Appender(b []byte) Coder { return Coder{mode: appending, b: b} }

// Decoder returns a Coder that reads a walk's fields from b.
func Decoder(b []byte) Coder { return Coder{mode: reading, r: Reader{b: b}} }

// Reading reports whether c reads, so a walk can allocate what it reads
// into and validate what it read.
func (c *Coder) Reading() bool { return c.mode == reading }

// Size returns the bytes a sizing walk counted.
func (c *Coder) Size() int { return c.n }

// Bytes returns an appending walk's output.
func (c *Coder) Bytes() []byte { return c.b }

// Remaining returns the bytes a reading walk left unread.
func (c *Coder) Remaining() int { return c.r.Remaining() }

// Err returns the walk's first error, or nil.
func (c *Coder) Err() error { return c.r.err }

// Fail latches err, if non-nil and no error is latched yet.
func (c *Coder) Fail(err error) {
	if err != nil && c.r.err == nil {
		c.r.err = err
	}
}

// U8 walks one byte.
func (c *Coder) U8(v *uint8) { code(c, v, 1, AppendU8, (*Reader).U8) }

// Bool walks a flag byte.
func (c *Coder) Bool(v *bool) { code(c, v, 1, AppendBool, (*Reader).Bool) }

// F64 walks a float's bits.
func (c *Coder) F64(v *float64) { code(c, v, 8, AppendF64, (*Reader).F64) }

// Int walks an int as i64.
func (c *Coder) Int(v *int) {
	switch c.mode {
	case sizing:
		c.n += 8
	case appending:
		c.b = AppendI64(c.b, int64(*v))
	default:
		*v = int(c.r.I64())
	}
}

// Ints walks a slice as AppendInts frames it.
func (c *Coder) Ints(xs *[]int) { codeSlice(c, xs, 8, AppendInts, (*Reader).Ints) }

// I32s walks a slice as AppendI32s frames it.
func (c *Coder) I32s(xs *[]int32) { codeSlice(c, xs, 4, AppendI32s, (*Reader).I32s) }

// U64s walks a slice as AppendU64s frames it.
func (c *Coder) U64s(xs *[]uint64) { codeSlice(c, xs, 8, AppendU64s, (*Reader).U64s) }

// F64s walks a slice as AppendF64s frames it.
func (c *Coder) F64s(xs *[]float64) { codeSlice(c, xs, 8, AppendF64s, (*Reader).F64s) }

// Bools walks a slice as AppendBools frames it.
func (c *Coder) Bools(xs *[]bool) { codeSlice(c, xs, 1, AppendBools, (*Reader).Bools) }

// code walks one size-byte value with its Append helper and Reader method.
func code[T any](c *Coder, v *T, size int, app func([]byte, T) []byte, read func(*Reader) T) {
	switch c.mode {
	case sizing:
		c.n += size
	case appending:
		c.b = app(c.b, *v)
	default:
		*v = read(&c.r)
	}
}

// codeSlice walks a count-prefixed slice of elem-byte elements with its
// Append helper and Reader method.
func codeSlice[T any](c *Coder, xs *[]T, elem int, app func([]byte, []T) []byte, read func(*Reader) []T) {
	code(c, xs, 8+elem*len(*xs), app, read)
}

// Rest walks raw bytes that run to the end of the payload, unframed.
// Reading copies them out of the input (nil when none remain).
func (c *Coder) Rest(xs *[]byte) {
	switch c.mode {
	case sizing:
		c.n += len(*xs)
	case appending:
		c.b = append(c.b, *xs...)
	default:
		*xs = append([]byte(nil), c.r.take(c.r.Remaining())...)
	}
}

// Len walks the u64 count of a list whose elements the walk then walks
// itself. It returns n, or when reading the stored count, which must be
// at most max.
func (c *Coder) Len(n, max int) int {
	switch c.mode {
	case sizing:
		c.n += 8
	case appending:
		c.b = AppendU64(c.b, uint64(n))
	default:
		u := c.r.U64()
		if u > uint64(max) {
			c.r.fail("wire: list of %d exceeds %d at offset %d", u, max, c.r.off-8)
			return 0
		}
		return int(u)
	}
	return n
}

// Has walks the presence flag of an optional part: it returns present,
// or when reading the stored flag.
func (c *Coder) Has(present bool) bool {
	c.Bool(&present)
	return present
}

// List walks a list of at most MaxOrder slices: its count, then each
// slice framed as the matching Coder method frames it. Reading always
// yields a non-nil list.
func List[T int32 | uint64 | float64 | bool](c *Coder, xss *[][]T) {
	n := c.Len(len(*xss), MaxOrder)
	if c.Reading() {
		*xss = make([][]T, n)
	}
	for i := range *xss {
		switch xs := any(&(*xss)[i]).(type) {
		case *[]int32:
			c.I32s(xs)
		case *[]uint64:
			c.U64s(xs)
		case *[]float64:
			c.F64s(xs)
		case *[]bool:
			c.Bools(xs)
		}
	}
}
