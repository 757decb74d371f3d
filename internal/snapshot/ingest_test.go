package snapshot

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"d2t2/internal/mmio"
	"d2t2/internal/tensor"
)

// ingestCorpus is a fixed set of uploads with their content addresses.
// The IDs are what every earlier release assigned these bodies, so a
// change to parsing, canonicalization or the TENS encoding that moved
// any ID (and so orphaned every cached artifact) fails here.
var ingestCorpus = []struct{ name, body, id string }{
	{"sorted.mtx",
		"%%MatrixMarket matrix coordinate real general\n4 5 5\n1 1 1.5\n1 4 -2\n2 2 3.25\n3 5 1e-3\n4 1 7\n",
		"sha256:df7f2e2102ace04b20dda1048868a35354d999a74c6291ec2694ca0f45d106b0"},
	{"unsorted.mtx",
		"%%MatrixMarket matrix coordinate real general\n% shuffled, CRLF\r\n4 5 5\r\n4 1 7\r\n2 2 3.25\r\n1 4 -2\r\n3 5 1e-3\r\n1 1 1.5\r\n",
		"sha256:df7f2e2102ace04b20dda1048868a35354d999a74c6291ec2694ca0f45d106b0"},
	{"duplicate.mtx",
		"%%MatrixMarket matrix coordinate real general\n3 3 4\n3 1 2\n2 2 1.25\n1 3 -1\n2 2 0.5\n",
		"sha256:10212965c53bd10c2b4293c82ed9e400513594c964c4d33ab2cfd32ce9c3addf"},
	{"symmetric.mtx",
		"%%MatrixMarket matrix coordinate real symmetric\n4 4 4\n1 1 2\n3 1 -1.5\n4 2 0.25\n4 4 9\n",
		"sha256:dbfb672b8fad17992b7e707ec2b6b4c2cefb2eeb698e8594a171f61d11e47a2e"},
	{"tensor.tns",
		"# FROSTT\n2 3 1 1.5\n1 1 1 -2\n3 2 4 0.125\n1 3 2 6\n",
		"sha256:5d383d4ee792f631731080666e9bd148b3a4035192894514a3387347b3ff2f20"},
}

// TestTensorIDGolden parses each corpus body as an upload does and pins
// its ID through both TensorID and TensorArtifact.
func TestTensorIDGolden(t *testing.T) {
	for _, c := range ingestCorpus {
		m, err := mmio.ReadAny(strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m.Dedup()
		id, err := TensorID(m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		aid, _, err := TensorArtifact(m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if id != c.id || aid != c.id {
			t.Errorf("%s: TensorID %s, TensorArtifact %s, want %s", c.name, id, aid, c.id)
		}
	}
}

// TestTensorArtifactMatchesSeparateCalls checks that the single-encode
// path returns exactly TensorID(t) and EncodeBytes(&Artifact{Tensor: t})
// on canonical tensors — built without duplicates and with duplicates
// summed by Dedup — and that neither call modifies its input.
func TestTensorArtifactMatchesSeparateCalls(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		dims := []int{1 + r.Intn(50), 1 + r.Intn(50), 1 + r.Intn(5)}[:1+trial%3]
		m := tensor.New(dims...)
		coord := make([]int, len(dims))
		for e := r.Intn(200); e > 0; e-- {
			for a := range coord {
				coord[a] = r.Intn(dims[a])
			}
			m.Append(coord, r.NormFloat64())
		}
		m.Dedup()
		before := m.Clone()
		id, art, err := TensorArtifact(m)
		if err != nil {
			t.Fatal(err)
		}
		wantID, err := TensorID(m)
		if err != nil {
			t.Fatal(err)
		}
		wantArt, err := EncodeBytes(&Artifact{Tensor: m})
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID || !bytes.Equal(art, wantArt) {
			t.Fatalf("trial %d: ID match %v, artifact match %v", trial, id == wantID, bytes.Equal(art, wantArt))
		}
		if !sameEntries(m, before) {
			t.Fatalf("trial %d: TensorArtifact or TensorID modified its input", trial)
		}
	}
	if _, _, err := TensorArtifact(tensor.New()); err == nil {
		t.Fatal("order-0 tensor accepted")
	}
}

// sameEntries compares two tensors entry by entry, in stored order.
func sameEntries(a, b *tensor.COO) bool {
	if a.NNZ() != b.NNZ() {
		return false
	}
	for p := 0; p < a.NNZ(); p++ {
		for x := range a.Crds {
			if a.Crds[x][p] != b.Crds[x][p] {
				return false
			}
		}
		if a.Vals[p] != b.Vals[p] {
			return false
		}
	}
	return true
}

// TestDecodeRejectsNonCanonicalStreams covers the three ways a stream of
// known sections used to decode yet re-encode to different bytes: a
// nonzero reserved header field, known sections out of the encoder's
// order, and bytes after the tensor payload.
func TestDecodeRejectsNonCanonicalStreams(t *testing.T) {
	m := tensor.New(2, 2)
	m.Append([]int{0, 1}, 3)
	tens, err := EncodeBytes(&Artifact{Tensor: m})
	if err != nil {
		t.Fatal(err)
	}
	both, err := EncodeBytes(&Artifact{Tensor: m, Response: []byte("r")})
	if err != nil {
		t.Fatal(err)
	}
	reserved := slices.Clone(tens)
	reserved[len(Magic)+2] = 1

	hdr := len(Magic) + 4
	split := len(tens) // the RESP section starts where the tensor-only stream ends
	swapped := append(slices.Clone(both[:hdr]), both[split:]...)
	swapped = append(swapped, both[hdr:split]...)

	payload := tens[hdr+12 : len(tens)-4]
	stray := appendSection(appendHeader(nil), tagTensor, append(slices.Clone(payload), 0))

	for name, b := range map[string][]byte{"reserved": reserved, "order": swapped, "stray": stray} {
		if _, err := DecodeBytes(b); err == nil {
			t.Errorf("%s: non-canonical stream decoded", name)
		}
	}
	for _, b := range [][]byte{tens, both} {
		a, err := DecodeBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := EncodeBytes(a); !bytes.Equal(enc, b) {
			t.Fatal("canonical stream does not re-encode to its own bytes")
		}
	}
}
