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

// FuzzParsePieces checks the parse's fan-out against its one-piece
// parse: cut into 1–4 near-equal pieces, at each single line start, and
// at every line start at once, each input must give the same tensor, the
// same canonical flag and the same error message as one piece, with and
// without caller dims for a .tns body.
func FuzzParsePieces(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1\n1 3 2\n% c\n2 2 3\n3 1 4\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 3\n2 2 1\n1 1 2\n3 3 3\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 1\n2 1\n3 2\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n1 2 x\n2 2 1e999\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n",
		"1 1 1 1\n1 2 1 2\n\n# c\n2 1 1 3\n2 1 2 4\n",
		"1 1 1\n2 2 2\n1 1 3\n",
		"1 1 1 1\n1 1\n5 5 5 5\n0 1 1 1\n",
		"1 1 1\r\n1 2 1\r\n3 1 1\r\n",
	}
	for _, s := range seeds {
		f.Add(s, uint8(3))
	}
	f.Fuzz(func(t *testing.T, s string, dim uint8) {
		body := []byte(s)
		layouts := []func() (*layout, error){
			func() (*layout, error) { return sniff(body) },
			func() (*layout, error) { return tnsLayout(body, []int{int(dim%6) + 1, int(dim%6) + 1}) },
		}
		for _, newLayout := range layouts {
			lay, err := newLayout()
			if err != nil {
				continue
			}
			want, wantCanon, wantErr := lay.join([]*piece{lay.parse(lay.start, len(body))})
			check := func(cuts []int) {
				t.Helper()
				pcs := make([]*piece, len(cuts)-1)
				for i := range pcs {
					pcs[i] = lay.parse(cuts[i], cuts[i+1])
				}
				got, canon, err := lay.join(pcs)
				switch {
				case err != nil || wantErr != nil:
					if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
						t.Fatalf("cuts %v of %q: error %v, one piece %v", cuts, s, err, wantErr)
					}
				case !sameCOO(got, want) || canon != wantCanon:
					t.Fatalf("cuts %v of %q: got %v %v canonical %v, one piece %v %v canonical %v",
						cuts, s, got.Crds, got.Vals, canon, want.Crds, want.Vals, wantCanon)
				}
			}
			for k := 1; k <= 4; k++ {
				check(lay.cuts(k))
			}
			all := []int{lay.start}
			for c := lay.start; c < len(body); c++ {
				if body[c] == '\n' && c+1 < len(body) {
					check([]int{lay.start, c + 1, len(body)})
					all = append(all, c+1)
				}
			}
			check(append(all, len(body)))
		}
	})
}
