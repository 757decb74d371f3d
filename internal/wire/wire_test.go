package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var b []byte
	b = AppendU8(b, 7)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63)
	b = AppendI64(b, -42)
	b = AppendF64(b, math.Pi)
	ints := []int{0, -1, math.MaxInt32 + 1}
	i32s := []int32{0, 5, math.MaxInt32}
	u64s := []uint64{1, math.MaxUint64}
	f64s := []float64{0, -0.5, math.Inf(1)}
	bools := []bool{true, false, true}
	b = AppendInts(b, ints)
	b = AppendI32s(b, i32s)
	b = AppendU64s(b, u64s)
	b = AppendF64s(b, f64s)
	b = AppendBools(b, bools)

	r := NewReader(b)
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<63 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, ints) {
		t.Errorf("Ints = %v", got)
	}
	if got := r.I32s(); !reflect.DeepEqual(got, i32s) {
		t.Errorf("I32s = %v", got)
	}
	if got := r.U64s(); !reflect.DeepEqual(got, u64s) {
		t.Errorf("U64s = %v", got)
	}
	if got := r.F64s(); !reflect.DeepEqual(got, f64s) {
		t.Errorf("F64s = %v", got)
	}
	if got := r.Bools(); !reflect.DeepEqual(got, bools) {
		t.Errorf("Bools = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if got := r.U64(); got != 0 {
		t.Errorf("truncated U64 = %d, want 0", got)
	}
	first := r.Err()
	if first == nil {
		t.Fatalf("no error after truncated read")
	}
	// Every later read returns zero values and keeps the original error.
	if got := r.U8(); got != 0 {
		t.Errorf("U8 after error = %d", got)
	}
	if r.Ints() != nil || r.F64s() != nil {
		t.Errorf("slice reads after error are not nil")
	}
	if r.Err() != first {
		t.Errorf("latched error was replaced")
	}
}

// TestLengthPrefixBounded is the allocation-safety property the fuzz
// targets lean on: a corrupted count can never exceed the bytes that
// actually remain, so decoders never allocate more than the input size.
func TestLengthPrefixBounded(t *testing.T) {
	huge := AppendU64(nil, math.MaxUint64)
	if got := NewReader(huge).Ints(); got != nil {
		t.Errorf("huge count returned a slice of %d", len(got))
	}
	if err := NewReader(huge).Err(); err != nil {
		t.Errorf("Err before any read: %v", err)
	}

	// Count that fits the prefix but not the payload.
	b := AppendU64(nil, 3) // declares 3 u64 elements, provides none
	r := NewReader(b)
	if r.U64s() != nil || r.Err() == nil {
		t.Errorf("short payload accepted")
	}
}

func TestI32sRejectsNegativeEncodings(t *testing.T) {
	b := AppendU64(nil, 1)
	b = AppendU32(b, 0x80000000) // int32(-2147483648): not a valid coordinate
	r := NewReader(b)
	if r.I32s() != nil || r.Err() == nil {
		t.Fatalf("negative int32 encoding accepted")
	}
}

// TestBoolRejectsNonCanonicalBytes: a flag byte other than 0 or 1 is
// corruption, alone or inside a Bools slice.
func TestBoolRejectsNonCanonicalBytes(t *testing.T) {
	for _, v := range []byte{2, 0xff} {
		if r := NewReader([]byte{v}); r.Bool() || r.Err() == nil {
			t.Errorf("Bool accepted byte %d", v)
		}
		b := append(AppendU64(nil, 2), 1, v)
		if r := NewReader(b); r.Bools() != nil || r.Err() == nil {
			t.Errorf("Bools accepted element byte %d", v)
		}
	}
}

// coded holds one field of every kind a Coder walks.
type coded struct {
	u8    uint8
	flag  bool
	i     int
	f     float64
	ints  []int
	i32s  []int32
	u64s  []uint64
	f64s  []float64
	bools []bool
	lists [][]uint64
	opt   [][]int32
	rest  []byte
}

func (v *coded) code(c *Coder) {
	c.U8(&v.u8)
	c.Bool(&v.flag)
	c.Int(&v.i)
	c.F64(&v.f)
	c.Ints(&v.ints)
	c.I32s(&v.i32s)
	c.U64s(&v.u64s)
	c.F64s(&v.f64s)
	c.Bools(&v.bools)
	List(c, &v.lists)
	if c.Has(v.opt != nil) {
		List(c, &v.opt)
	}
	c.Rest(&v.rest)
}

// TestCoderModesAgree: one walk sizes exactly what it appends, appends
// what the primitives frame, and reads back the value it walked.
func TestCoderModesAgree(t *testing.T) {
	in := coded{
		u8: 7, flag: true, i: -42, f: math.Pi,
		ints: []int{0, -1, math.MaxInt32 + 1}, i32s: []int32{0, math.MaxInt32},
		u64s: []uint64{1, math.MaxUint64}, f64s: []float64{-0.5}, bools: []bool{true, false},
		lists: [][]uint64{nil, {3}}, rest: []byte("tail"),
	}
	s := Sizer()
	in.code(&s)
	a := Appender(nil)
	in.code(&a)
	if s.Err() != nil || a.Err() != nil || s.Size() != len(a.Bytes()) {
		t.Fatalf("sized %d bytes (%v), appended %d (%v)", s.Size(), s.Err(), len(a.Bytes()), a.Err())
	}
	want := AppendU64s(AppendU64s(AppendU64(AppendBools(AppendF64s(AppendU64s(AppendI32s(AppendInts(
		AppendF64(AppendI64(AppendBool(AppendU8(nil, 7), true), -42), math.Pi), in.ints), in.i32s), in.u64s),
		in.f64s), in.bools), 2), nil), []uint64{3})
	want = append(AppendBool(want, false), "tail"...)
	if !reflect.DeepEqual(a.Bytes(), want) {
		t.Fatalf("appended %x, want %x", a.Bytes(), want)
	}
	var out coded
	d := Decoder(a.Bytes())
	out.code(&d)
	if d.Err() != nil || d.Remaining() != 0 || !reflect.DeepEqual(out, in) {
		t.Fatalf("read %+v (%v, %d left), want %+v", out, d.Err(), d.Remaining(), in)
	}
}

// TestCoderLenBounded: a read list count above its bound fails, and a
// Fail in any mode keeps the first error.
func TestCoderLenBounded(t *testing.T) {
	d := Decoder(AppendU64(nil, MaxOrder+1))
	var xss [][]float64
	if List(&d, &xss); d.Err() == nil || len(xss) != 0 {
		t.Fatalf("a list of %d accepted (%d read)", MaxOrder+1, len(xss))
	}
	s := Sizer()
	first := errors.New("first")
	s.Fail(nil)
	s.Fail(first)
	s.Fail(errors.New("second"))
	if s.Err() != first {
		t.Fatalf("Err = %v, want the first failure", s.Err())
	}
}
