package cluster

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the peer frame decoder. It
// must never panic, and every frame it accepts must be canonical:
// EncodeFrame of the decoded (key, payload) reproduces the input bytes
// and decodes to the same pair. Flipping any payload byte of an
// accepted frame must always fail the CRC, so a corrupted transfer
// never reaches a store.
func FuzzDecodeFrame(f *testing.F) {
	key := "sha256:" + strings.Repeat("ab", 32)
	f.Add(EncodeFrame(key, []byte("D2T2SNAP pretend artifact bytes \x00\x01\x02")), uint16(0x0101))
	f.Add(EncodeFrame(key, nil), uint16(0))
	f.Add(EncodeFrame("", []byte{0}), uint16(0xff00))
	f.Add([]byte(frameMagic), uint16(7))
	f.Add([]byte("D2T2SNAP"), uint16(7))

	f.Fuzz(func(t *testing.T, frame []byte, flip uint16) {
		key, payload, err := DecodeFrame(frame)
		if err != nil {
			return
		}
		enc := EncodeFrame(key, payload)
		if !bytes.Equal(enc, frame) {
			t.Fatalf("accepted frame is not canonical:\n%x\n%x", frame, enc)
		}
		key2, payload2, err := DecodeFrame(enc)
		if err != nil || key2 != key || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-encoded frame decodes to (%q, %x, %v), want (%q, %x)", key2, payload2, err, key, payload)
		}
		if len(payload) == 0 {
			return
		}
		// The payload sits just before the trailing 4-byte CRC.
		at := len(enc) - 4 - len(payload) + int(flip)%len(payload)
		mask := byte(flip >> 8)
		if mask == 0 {
			mask = 1
		}
		enc[at] ^= mask
		if _, _, err := DecodeFrame(enc); err == nil {
			t.Fatalf("frame with payload byte %d flipped by %#x accepted", at, mask)
		}
	})
}
