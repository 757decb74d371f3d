package snapshot

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"d2t2/internal/wire"
)

// TestRiskSectionCompat pins the satellite-2 compatibility contract: a
// conservative artifact (Risk nil) encodes exactly as the pre-risk codec
// did — no RISK tag anywhere — and a risk-annotated artifact only
// *appends* the new section, leaving the pre-risk prefix byte-identical.
func TestRiskSectionCompat(t *testing.T) {
	a := testArtifact(t)
	plain, err := EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(tagRisk)) {
		t.Fatal("conservative artifact encoding contains a RISK tag")
	}
	dec, err := DecodeBytes(plain)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Risk != nil {
		t.Fatalf("conservative artifact decoded with Risk = %+v", dec.Risk)
	}

	a.Risk = &RiskMeta{OverflowTarget: 0.05, PredictedOverflowRate: 0.031, Calibrated: true}
	risky, err := EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(risky, plain) {
		t.Fatal("risk-annotated encoding does not extend the conservative bytes: pre-risk readers would see different artifacts")
	}
	got, err := DecodeBytes(risky)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Risk, a.Risk) {
		t.Fatalf("risk meta round trip: got %+v, want %+v", got.Risk, a.Risk)
	}
	reenc, err := EncodeBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, risky) {
		t.Fatal("risk-annotated encoding is not canonical (decode+encode changed bytes)")
	}
}

// TestRiskSectionSkippedByPreRiskReaders simulates a pre-risk reader:
// the RISK tag rides the unknown-section rule, so an artifact written by
// this codec must still decode if the tag were unknown — which the
// codec guarantees by framing RISK exactly like every other section.
// Here we verify the inverse direction: bytes with an unknown future
// section after RISK still decode and preserve Risk.
func TestRiskSectionSkippedByPreRiskReaders(t *testing.T) {
	a := testArtifact(t)
	a.Risk = &RiskMeta{OverflowTarget: 0.01}
	b, err := EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	b = appendSection(b, "ZZZZ", []byte("future payload"))
	got, err := DecodeBytes(b)
	if err != nil {
		t.Fatalf("unknown section after RISK broke decoding: %v", err)
	}
	if got.Risk == nil || got.Risk.OverflowTarget != 0.01 {
		t.Fatalf("risk meta lost: %+v", got.Risk)
	}
}

// TestDecodeRiskRejects: malformed RISK payloads fail loudly instead of
// yielding a half-initialized risk point.
func TestDecodeRiskRejects(t *testing.T) {
	valid := encodeRisk(&RiskMeta{OverflowTarget: 0.05, PredictedOverflowRate: 0.02})
	if _, err := decodeRisk(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"future version", encodeRisk2(&RiskMeta{OverflowTarget: 0.05}), "version"},
		{"stray bytes", append(append([]byte(nil), valid...), 0xFF), "stray"},
		{"target out of range", encodeRisk(&RiskMeta{OverflowTarget: 1.5}), "outside [0, 1)"},
		{"truncated", valid[:len(valid)-4], ""},
	}
	for _, tc := range cases {
		_, err := decodeRisk(tc.payload)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// encodeRisk2 emits a RISK payload stamped with a future version number.
func encodeRisk2(m *RiskMeta) []byte {
	b := wire.AppendU64(nil, riskMetaVersion+1)
	b = wire.AppendF64(b, m.OverflowTarget)
	b = wire.AppendF64(b, m.PredictedOverflowRate)
	return wire.AppendBool(b, m.Calibrated)
}
