package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"d2t2/internal/gen"
	"d2t2/internal/tensor"
)

// sketchDigest is a short digest of every axis's pair sketch.
func sketchDigest(s *Stats) string {
	h := sha256.New()
	var b [8]byte
	for _, sk := range s.PairSketch {
		binary.LittleEndian.PutUint64(b[:], uint64(len(sk)))
		h.Write(b[:])
		for _, v := range sk {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPairSketchNarrowKeysUnchanged pins the pair sketches of two
// matrices and a narrow 3-tensor to digests taken with the original
// coordinate<<26 ^ rest key, which every such tensor still uses.
func TestPairSketchNarrowKeysUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i, c := range []struct {
		m    *tensor.COO
		tile []int
		want string
	}{
		{gen.PowerLawGraph(r, 512, 6000, 1.6), []int{32, 32}, "c515807391b84283"},
		{gen.UniformRandom(r, 300, 700, 4000), []int{16, 16}, "b64d72bca2d012de"},
		{gen.RandomTensor3(r, 64, 80, 96, 3000, [3]float64{1.2, 1.1, 1.3}), []int{8, 8, 8}, "edc81c3eb7d671c8"},
	} {
		order := make([]int, len(c.tile))
		for a := range order {
			order[a] = a
		}
		st, _, err := Collect(c.m, c.tile, order, &Options{MicroDiv: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := sketchDigest(st); got != c.want {
			t.Errorf("case %d: pair sketch digest %s, want %s", i, got, c.want)
		}
	}
}

// TestPairSketchWideKeysDoNotCollide builds two entries of a 3-tensor
// whose (axis-0 coordinate, rest bucket) pairs met in the original key
// — coordinate 1 with rest 0, and coordinate 0 with rest 2^26 — and
// checks the axis-0 sketch now holds both.
func TestPairSketchWideKeysDoNotCollide(t *testing.T) {
	dims := []int{2, 8192, 16384}
	outer1 := uint64(dims[2] + 1) // the original radix of axis 2's bucket
	b1 := uint64(1<<26) / outer1
	b2 := uint64(1<<26) - b1*outer1
	if 1<<26^0 != 0<<26^(b1*outer1+b2) {
		t.Fatal("the entries do not collide in the original key")
	}
	m := tensor.New(dims...)
	m.Append([]int{1, 0, 0}, 1)
	m.Append([]int{0, int(b1), int(b2)}, 1)
	m.Dedup()
	if _, narrow := pairKeyRadixes(dims, dims); narrow[0] {
		t.Fatal("axis 0 of a 8192×16384 rest grid kept the narrow key")
	}
	st, _, err := Collect(m, []int{1, 1, 1}, []int{0, 1, 2}, &Options{MicroDiv: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.PairSketch[0]); n != 2 {
		t.Fatalf("the axis-0 pair sketch holds %d hashes for two distinct pairs", n)
	}
}
