package mmio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket checks the reader never panics and that anything
// it accepts survives a write/read round trip.
func FuzzReadMatrixMarket(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 0\n",
		"garbage",
		"%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ReadMatrixMarket(strings.NewReader(s))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("cannot re-write accepted matrix: %v", err)
		}
		if _, err := ReadMatrixMarket(&buf); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzReadTNS checks the tensor reader likewise.
func FuzzReadTNS(f *testing.F) {
	seeds := []string{
		"1 1 1 5.0\n2 3 4 1.5\n",
		"# comment\n1 2 3\n",
		"1\n",
		"0 0 0 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ReadTNS(strings.NewReader(s), nil)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted tensor fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTNS(&buf, m); err != nil {
			t.Fatalf("cannot re-write accepted tensor: %v", err)
		}
		if _, err := ReadTNS(&buf, m.Dims); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzReadersMatchOracle is the differential check of the byte-level
// readers against the line-oriented oracle they replaced: on every
// input each reader returns the oracle's tensor bit for bit, or its
// error message.
func FuzzReadersMatchOracle(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\r\n3 3 1\r\n2 1 4\r\n",
		"%%MatrixMarket matrix coordinate integer general\n% c\n2 2 2\n2 2 1\n1 1 -2\n2 2 5\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n+1\u00a02 1e3\n",
		"1 1 1 5.0\n2 3 4 1.5\n1 1 1 2\n",
		"# comment\n1 2 3\n",
		"1 2\u20283 4\n",
		"garbage",
	}
	for i, s := range seeds {
		f.Add(s, uint8(i))
	}
	f.Fuzz(func(t *testing.T, s string, dim uint8) {
		assertMatchesOracle(t, s, int(dim%6)+1)
	})
}
