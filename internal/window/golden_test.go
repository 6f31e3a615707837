package window

import (
	"encoding/hex"
	"math"
	"testing"
)

// Golden-vector tests. The sized-form blobs (tag 0xE1) were produced by the
// per-object bucket-deque encoder that predates the flat arena engine; no
// encoder writes that form any more, so they are decode-only: serialized
// histograms from earlier commits must keep decoding, answering queries
// identically, and merging. The size-free blobs (tag 0xE7) are the same
// histograms as every encoder writes them now, and pin re-encoding.

const (
	// ehGoldenHex encodes an ε=0.05, N=2^14 histogram fed 5000 bursty AddN
	// calls (deterministic stream, see the assertions for its fingerprint).
	ehGoldenHex = "e1008080019a9999999999a93f0000000000000000808001009b9c016c8118fd078004008608800400f6078004048308800400fe078004008504800200f903800202ff038002008304800200ff03800201fd038002008104800200fe03800207fb03800200ff03800200fd038002068004800200fc01800102ff018001008002800100fc0180010582028001008302800100fc01800101fe01800100ff01800100fc0180010481028001007e4002820140007d40007f40077a40008301400079400580014000820140007a4003860140003920023f20004320003f20013d20004120003e20073b20003f20003d20064020001c10021f10002010001c10052210002310001c10011e10001f10001c10042110002210000d08000f08070a08001308000908051008001208000a08031608000a08001208010e08000604070304000704000504060804000504000404050d04000304000304040b04000002070102000202000002030402000502000002060702000102000002020302000402000001000001050001060001000001070001000001000001010001020001000001"
	// ehSmallGoldenHex encodes an ε=0.1, N=1000 histogram holding 20 unit
	// buckets — small enough that no size-class merges have happened.
	ehSmallGoldenHex = "e100e8079a9999999999b93f0000000000000000e807003c0d030302030302030302030302030302030302030302030001030001030001030001030001030001"

	// ehGoldenSizeFreeHex and ehSmallGoldenSizeFreeHex are the two
	// histograms above in the size-free form.
	ehGoldenSizeFreeHex      = "e7008080019a9999999999a93f0000000000000000808001009b9c010a050c0b0b0b0c0c0b0c0b8118fd0700860800f60704830800fe0700850400f90302ff0300830400ff0301fd0300810400fe0307fb0300ff0300fd0306800400fc0102ff0100800200fc0105820200830200fc0101fe0100ff0100fc01048102007e028201007d007f077a0083010079058001008201007a0386010039023f0043003f013d0041003e073b003f003d0640001c021f0020001c05220023001c011e001f001c04210022000d000f070a0013000905100012000a0316000a0012010e0006070300070005060800050004050d00030003040b0000070100020000030400050000060700010000020300040000050600070000010200"
	ehSmallGoldenSizeFreeHex = "e700e8079a9999999999b93f0000000000000000e807003c0207060303030303030303030303030303030303030303"
)

func mustGolden(t *testing.T, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatalf("corrupt golden hex: %v", err)
	}
	return b
}

func TestGoldenEHDecode(t *testing.T) {
	for _, g := range []struct{ name, hex string }{{"sized", ehGoldenHex}, {"size-free", ehGoldenSizeFreeHex}} {
		h, err := UnmarshalEH(mustGolden(t, g.hex))
		if err != nil {
			t.Fatalf("decoding %s golden EH: %v", g.name, err)
		}
		if got := h.Now(); got != 19995 {
			t.Errorf("%s: Now = %d, want 19995", g.name, got)
		}
		if got := h.Total(); got != 8463 {
			t.Errorf("%s: Total = %d, want 8463", g.name, got)
		}
		if got := h.NumBuckets(); got != 108 {
			t.Errorf("%s: NumBuckets = %d, want 108", g.name, got)
		}
		if got := h.EstimateWindow(); math.Abs(got-8207) > 1e-9 {
			t.Errorf("%s: EstimateWindow = %v, want 8207", g.name, got)
		}
		if got := h.EstimateSince(1000); math.Abs(got-8207) > 1e-9 {
			t.Errorf("%s: EstimateSince(1000) = %v, want 8207", g.name, got)
		}
		// Re-encoding either decoded histogram writes the size-free bytes,
		// and so does a bank cell decoded from either.
		if got := hex.EncodeToString(h.Marshal()); got != ehGoldenSizeFreeHex {
			t.Errorf("%s: re-encoded golden EH differs from the size-free bytes", g.name)
		}
		b, err := NewEHBank(h.Config(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.UnmarshalCell(0, mustGolden(t, g.hex)); err != nil {
			t.Fatalf("bank decoding %s golden EH: %v", g.name, err)
		}
		if got := hex.EncodeToString(b.AppendMarshalCell(nil, 0)); got != ehGoldenSizeFreeHex {
			t.Errorf("%s: bank re-encoding differs from the size-free bytes", g.name)
		}
		if got := b.EstimateSince(0, 1000); math.Abs(got-8207) > 1e-9 {
			t.Errorf("%s: bank EstimateSince(1000) = %v, want 8207", g.name, got)
		}
	}
}

func TestGoldenEHSmallDecodeAndMerge(t *testing.T) {
	h, err := UnmarshalEH(mustGolden(t, ehSmallGoldenHex))
	if err != nil {
		t.Fatalf("decoding golden EH: %v", err)
	}
	if got := h.EstimateWindow(); got != 20 {
		t.Errorf("EstimateWindow = %v, want 20", got)
	}
	if got := hex.EncodeToString(h.Marshal()); got != ehSmallGoldenSizeFreeHex {
		t.Errorf("re-encoded small golden EH differs from the size-free bytes")
	}
	// Golden histograms must keep participating in Theorem 4 merges.
	other, err := NewEH(Config{Length: 1000, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := Tick(1); i <= 20; i++ {
		other.Add(i*3 + 1)
	}
	m, err := MergeEH(Config{Length: 1000, Epsilon: 0.1}, h, other)
	if err != nil {
		t.Fatalf("merging golden EH: %v", err)
	}
	if got := m.EstimateWindow(); got != 40 {
		t.Errorf("merged EstimateWindow = %v, want 40", got)
	}
}
