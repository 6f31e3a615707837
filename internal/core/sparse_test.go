package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ecmsketch/internal/window"
)

func sparseParams(algo window.Algorithm) Params {
	return Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1000, Seed: 42, Algorithm: algo, UpperBound: 1 << 16}
}

// TestSparseRoundTripBitIdentical pins the sparse encoding contract for EH
// and DW: the decoded sketch marshals byte-identically to the dense
// original, across fresh, sparsely occupied, settled and fully expired
// states — and actually elides, shrinking sparse baselines. RW takes the
// dense form at every stage.
func TestSparseRoundTripBitIdentical(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			s, err := New(sparseParams(algo))
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, wantSmaller bool) {
				t.Helper()
				dense := s.Marshal()
				sparse := s.MarshalSparse()
				if algo == window.AlgoRW {
					if !bytes.Equal(sparse, dense) {
						t.Fatalf("%s: RW MarshalSparse is not Marshal", stage)
					}
					return
				}
				back, err := UnmarshalAny(sparse)
				if err != nil {
					t.Fatalf("%s: decode sparse: %v", stage, err)
				}
				if !bytes.Equal(back.Marshal(), dense) {
					t.Fatalf("%s: sparse round trip is not byte-identical to dense", stage)
				}
				if wantSmaller && len(sparse) >= len(dense) {
					t.Fatalf("%s: sparse %d B not smaller than dense %d B", stage, len(sparse), len(dense))
				}
				if !wantSmaller && len(sparse) > len(dense) {
					t.Fatalf("%s: sparse %d B larger than dense %d B", stage, len(sparse), len(dense))
				}
			}

			check("fresh", true)

			// A handful of keys: most cells stay untouched mid-ingest (cell
			// clocks diverge from the sketch clock, so elision is partial but
			// the round trip must still be exact).
			for k := 0; k < 8; k++ {
				s.AddN(uint64(k*1007), Tick(10+k), uint64(k+1))
			}
			check("unsettled", false)

			// Settled: untouched cells sit at the sketch clock and elide.
			s.Advance(s.Now())
			check("settled", true)

			// Everything expired: EH cells drain back to untouched (and
			// elide again); wave cells keep rank/eviction marks and ship.
			s.Advance(s.Now() + 10*1000)
			check("expired", true)
		})
	}
}

// TestSparseRejectsCorrupt exercises the sparse decoder's validation: out
// of range and duplicate elided indices, truncation, trailing bytes, and a
// randomized-wave sketch, which no producer encodes sparse.
func TestSparseRejectsCorrupt(t *testing.T) {
	s, err := New(sparseParams(window.AlgoEH))
	if err != nil {
		t.Fatal(err)
	}
	s.AddN(7, 5, 3)
	s.Advance(s.Now())
	enc := s.MarshalSparse()
	if enc[0] != wireSparse {
		t.Fatalf("expected a sparse encoding, tag 0x%02x", enc[0])
	}
	if _, err := UnmarshalAny(enc[:len(enc)-1]); err == nil {
		t.Error("truncated sparse encoding accepted")
	}
	if _, err := UnmarshalAny(append(append([]byte(nil), enc...), 0xAA)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := UnmarshalAny([]byte{wireSparse}); err == nil {
		t.Error("empty sparse body accepted")
	}
	rw, err := New(sparseParams(window.AlgoRW))
	if err != nil {
		t.Fatal(err)
	}
	rw.AddN(7, 5, 3)
	if _, err := UnmarshalAny(rwSparse(rw)); err == nil {
		t.Error("sparse RW encoding accepted")
	}
}

// rwSparse hand-builds a wireSparse encoding of a randomized-wave sketch
// that elides no cell.
func rwSparse(s *Sketch) []byte {
	dst := append(s.appendMarshalHeader([]byte{wireSparse}), 0)
	var cell []byte
	for i := 0; i < s.d*s.w; i++ {
		cell = s.bank.AppendMarshalCellBare(cell[:0], i)
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}
