package wire

import (
	"bytes"
	"math"
	"testing"
)

// Reader ops a FuzzReader input selects, one op byte before each value.
const (
	opU8 = iota
	opBool
	opU32
	opU64
	opI64
	opF64
	opInts
	opI32s
	opU64s
	opF64s
	opBytes
	opBools
	numOps
)

// FuzzReader drives a Reader with an op stream read from the input
// itself: each op byte picks the primitive decoded next. The reader must
// never panic, no decoded slice may hold more payload than the bytes it
// consumed (so allocation is bounded by the input), and every accepted
// value must re-encode to exactly the bytes it was decoded from — the
// canonicality the snapshot codec's decode-encode identity rests on.
func FuzzReader(f *testing.F) {
	f.Add([]byte{opBool, 2})
	f.Add(append([]byte{opBools}, append(AppendU64(nil, 1), 2)...))
	var all []byte
	all = append(all, opU8, 7, opBool, 1, opBool, 0)
	all = AppendU32(append(all, opU32), 0xdeadbeef)
	all = AppendU64(append(all, opU64), math.MaxUint64)
	all = AppendI64(append(all, opI64), -42)
	all = AppendF64(append(all, opF64), math.Inf(-1))
	all = AppendInts(append(all, opInts), []int{0, -1, math.MaxInt32 + 1})
	all = AppendI32s(append(all, opI32s), []int32{0, math.MaxInt32})
	all = AppendU64s(append(all, opU64s), []uint64{1, math.MaxUint64})
	all = AppendF64s(append(all, opF64s), []float64{-0.5, math.NaN()})
	all = AppendBytes(append(all, opBytes), []byte("key"))
	all = AppendBools(append(all, opBools), []bool{true, false})
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for r.Remaining() > 0 {
			op := r.U8() % numOps
			start := r.off
			var enc []byte
			payload := 0 // decoded slice payload bytes
			switch op {
			case opU8:
				enc = AppendU8(nil, r.U8())
			case opBool:
				enc = AppendBool(nil, r.Bool())
			case opU32:
				enc = AppendU32(nil, r.U32())
			case opU64:
				enc = AppendU64(nil, r.U64())
			case opI64:
				enc = AppendI64(nil, r.I64())
			case opF64:
				enc = AppendF64(nil, r.F64())
			case opInts:
				xs := r.Ints()
				enc, payload = AppendInts(nil, xs), 8*len(xs)
			case opI32s:
				xs := r.I32s()
				enc, payload = AppendI32s(nil, xs), 4*len(xs)
			case opU64s:
				xs := r.U64s()
				enc, payload = AppendU64s(nil, xs), 8*len(xs)
			case opF64s:
				xs := r.F64s()
				enc, payload = AppendF64s(nil, xs), 8*len(xs)
			case opBytes:
				xs := r.Bytes()
				enc, payload = AppendBytes(nil, xs), len(xs)
			case opBools:
				xs := r.Bools()
				enc, payload = AppendBools(nil, xs), len(xs)
			}
			if r.Err() != nil {
				return // rejected input: nothing was accepted to re-encode
			}
			consumed := data[start:r.off]
			if payload > len(consumed) {
				t.Fatalf("op %d decoded %d payload bytes from %d consumed", op, payload, len(consumed))
			}
			if !bytes.Equal(enc, consumed) {
				t.Fatalf("op %d: accepted bytes %x re-encode to %x", op, consumed, enc)
			}
		}
	})
}
