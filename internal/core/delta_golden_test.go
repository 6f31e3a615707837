package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// Golden-vector tests for the delta wire format. Delta payloads carry
// changed cells in the config-elided bare form (window.Bank.AppendMarshalCellBare);
// these vectors pin that framing byte-for-byte so it cannot drift silently,
// and the fallback test proves the decoder still accepts the older framing
// that shipped full-form (config-carrying) cells, so payloads from producers
// predating the bare form keep applying. Full snapshots are pinned
// separately by golden_test.go — eliding per-cell configs from deltas left
// them untouched.
//
// The producer is rebuilt deterministically: every input to the payload —
// events, clock, seed, identifier salt, epoch — is fixed, so the emitted
// bytes are a pure function of the encoder.

const (
	deltaGoldenEpoch = 0x5eed_cafe_f00d_d1ce
	deltaGoldenSalt  = 0x1122_3344_5566_7788

	// deltaGoldenBaseHex is the producer's full snapshot (standard Marshal
	// bytes) at the baseline version; deltaGoldenDeltaHex is the wireDelta
	// payload for the mutations between baseline and final state, cells in
	// bare form. These three carry cells in the sized EH form (tags 0xE1,
	// 0xE4), which no encoder writes any more: they are decode-only, and
	// the *SizeFreeHex vectors below pin what the producer emits now.
	deltaGoldenBaseHex  = "ec000000000000d03f000000000000d03f000000e80700091802804a7fb97937be3f804a7fb97937be3f140888ef99abc5e88c9111002be100e807804a7fb97937be3f000000000000c03fe8070914060a000100000100000100000100000105000119e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe8070914001fe100e807804a7fb97937be3f000000000000c03fe8070914020c000100000119e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe8070914001fe100e807804a7fb97937be3f000000000000c03fe8070914020c000100000119e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe8070914002be100e807804a7fb97937be3f000000000000c03fe8070914060a000100000100000100000100000105000119e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe80709140019e100e807804a7fb97937be3f000000000000c03fe807091400"
	deltaGoldenDeltaHex = "edcea3b780efdff2f65e060ab0091488ef99abc5e88c91110004001de4b00908bc050002000001000001000001000001000001000001000001050ee4b00903c1050001000001000001221de4b00908bc050002000001000001000001000001000001000001000001060ee4b00903c1050001000001000001"
	// deltaGoldenFinalHex is the producer's Marshal after the delta — what a
	// receiver that applies either payload form over the baseline must hold.
	deltaGoldenFinalHex = "ec000000000000d03f000000000000d03f000000e80700091802804a7fb97937be3f804a7fb97937be3fb0091488ef99abc5e88c91110033e100e807804a7fb97937be3f000000000000c03fe80709b00908bc0500020000010000010000010000010000010000010000011ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b0090024e100e807804a7fb97937be3f000000000000c03fe80709b00903c10500010000010000011ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b0090033e100e807804a7fb97937be3f000000000000c03fe80709b00908bc0500020000010000010000010000010000010000010000011ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b0090024e100e807804a7fb97937be3f000000000000c03fe80709b00903c10500010000010000011ae100e807804a7fb97937be3f000000000000c03fe80709b009001ae100e807804a7fb97937be3f000000000000c03fe80709b00900"

	// The same three in the size-free EH form (tags 0xE7, 0xE8).
	deltaGoldenBaseSizeFreeHex  = "ec000000000000d03f000000000000d03f000000e80700091802804a7fb97937be3f804a7fb97937be3f140888ef99abc5e88c91110020e700e807804a7fb97937be3f000000000000c03fe807091401060a000000000519e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe8070914001ce700e807804a7fb97937be3f000000000000c03fe807091401020c0019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe8070914001ce700e807804a7fb97937be3f000000000000c03fe807091401020c0019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140020e700e807804a7fb97937be3f000000000000c03fe807091401060a000000000519e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe80709140019e700e807804a7fb97937be3f000000000000c03fe807091400"
	deltaGoldenDeltaSizeFreeHex = "edcea3b780efdff2f65e060ab0091488ef99abc5e88c911100040010e8b009020107bc0500000000000000000509e8b0090103c10500002210e8b009020107bc0500000000000000000609e8b0090103c1050000"
	deltaGoldenFinalSizeFreeHex = "ec000000000000d03f000000000000d03f000000e80700091802804a7fb97937be3f804a7fb97937be3fb0091488ef99abc5e88c91110026e700e807804a7fb97937be3f000000000000c03fe80709b009020107bc0500000000000000001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001fe700e807804a7fb97937be3f000000000000c03fe80709b0090103c10500001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b0090026e700e807804a7fb97937be3f000000000000c03fe80709b009020107bc0500000000000000001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b009001fe700e807804a7fb97937be3f000000000000c03fe80709b0090103c10500001ae700e807804a7fb97937be3f000000000000c03fe80709b009001ae700e807804a7fb97937be3f000000000000c03fe80709b00900"
)

// deltaGoldenProducer replays the fixed history: a baseline batch, then a
// second wave of arrivals plus enough clock movement to expire part of the
// baseline, so the delta exercises replaced cells, emptied cells and
// untouched cells at once. Returns the sketch settled at the baseline
// version (phase 0) or the final version (phase 1).
func deltaGoldenProducer(t *testing.T, phase int) *Sketch {
	t.Helper()
	s, err := New(Params{Epsilon: 0.25, Delta: 0.25, WindowLength: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s.epoch = deltaGoldenEpoch
	s.SetIDSalt(deltaGoldenSalt)
	s.AddBatch([]Event{
		{Key: 3, Tick: 10, N: 5},
		{Key: 7, Tick: 12, N: 2},
		{Key: 3, Tick: 15, N: 1},
	})
	s.Advance(20)
	if phase == 0 {
		return s
	}
	s.AddBatch([]Event{
		{Key: 3, Tick: 700, N: 9},
		{Key: 11, Tick: 705, N: 3},
	})
	s.Advance(1200) // slides the window past the baseline arrivals
	return s
}

// TestGoldenDeltaEncode pins the bare-cell wireDelta framing: the
// deterministic producer must emit exactly the golden bytes, and its full
// snapshots at both ends must match their pinned forms.
func TestGoldenDeltaEncode(t *testing.T) {
	base := deltaGoldenProducer(t, 0)
	if got := hex.EncodeToString(base.Marshal()); got != deltaGoldenBaseSizeFreeHex {
		t.Fatalf("baseline snapshot drifted from golden:\n got %s\nwant %s", got, deltaGoldenBaseSizeFreeHex)
	}
	baseVer := base.DeltaVersion()

	final := deltaGoldenProducer(t, 1)
	payload := final.AppendDeltaSince(nil, deltaGoldenEpoch, baseVer)
	if got := hex.EncodeToString(payload); got != deltaGoldenDeltaSizeFreeHex {
		t.Fatalf("delta payload drifted from golden:\n got %s\nwant %s", got, deltaGoldenDeltaSizeFreeHex)
	}
	if got := hex.EncodeToString(final.Marshal()); got != deltaGoldenFinalSizeFreeHex {
		t.Fatalf("final snapshot drifted from golden:\n got %s\nwant %s", got, deltaGoldenFinalSizeFreeHex)
	}
}

// TestGoldenDeltaDecode applies each pinned payload over its pinned
// baseline, sized and size-free, and requires byte-identical reconstruction
// — the decoder contract frozen against the golden bytes rather than against
// whatever the current encoder happens to emit. Both re-encode to the
// size-free final snapshot.
func TestGoldenDeltaDecode(t *testing.T) {
	for _, g := range []struct{ name, base, delta string }{
		{"sized", deltaGoldenBaseHex, deltaGoldenDeltaHex},
		{"size-free", deltaGoldenBaseSizeFreeHex, deltaGoldenDeltaSizeFreeHex},
	} {
		receiver := mustGoldenSketch(t, g.base)
		payload, err := hex.DecodeString(g.delta)
		if err != nil {
			t.Fatal(err)
		}
		// The held base version is cursor state, tracked by DeltaState
		// rather than the decoded sketch; here it is the producer's
		// baseline version.
		baseVer := deltaGoldenProducer(t, 0).DeltaVersion()
		var replaced []int
		newVer, err := receiver.applyDelta(payload, deltaGoldenEpoch, baseVer, func(idx int) {
			replaced = append(replaced, idx)
		})
		if err != nil {
			t.Fatalf("%s: applying golden delta: %v", g.name, err)
		}
		if got := hex.EncodeToString(receiver.Marshal()); got != deltaGoldenFinalSizeFreeHex {
			t.Fatalf("%s: golden delta reconstruction diverged:\n got %s\nwant %s", g.name, got, deltaGoldenFinalSizeFreeHex)
		}
		if newVer != deltaGoldenProducer(t, 1).DeltaVersion() {
			t.Fatalf("%s: golden delta advanced to version %d, want the producer's", g.name, newVer)
		}
		if len(replaced) == 0 {
			t.Fatalf("%s: golden delta replaced no cells; the vector should carry changes", g.name)
		}
	}
}

// appendDeltaFullForm re-frames a sketch's delta with full-form
// (config-carrying) cells — the framing producers shipped before the bare
// form. Header and per-cell index/length framing are identical; only the
// cell encodings differ.
func appendDeltaFullForm(s *Sketch, epoch, base uint64) []byte {
	return appendDeltaCells(s, epoch, base, s.eh.AppendMarshalCell)
}

// appendDeltaSized frames a sketch's delta with its EH cells in the sized
// bare form (tag 0xE4: now, the bucket count, then each bucket's start
// delta, span and size), as producers wrote them before the size-free form.
func appendDeltaSized(s *Sketch, epoch, base uint64) []byte {
	return appendDeltaCells(s, epoch, base, func(dst []byte, i int) []byte {
		dst = append(dst, 0xE4)
		dst = binary.AppendUvarint(dst, uint64(s.eh.Now(i)))
		bs := s.eh.Buckets(i)
		dst = binary.AppendUvarint(dst, uint64(len(bs)))
		var prev Tick
		for _, b := range bs {
			dst = binary.AppendUvarint(dst, uint64(b.Start-prev))
			dst = binary.AppendUvarint(dst, uint64(b.End-b.Start))
			dst = binary.AppendUvarint(dst, b.Size)
			prev = b.End
		}
		return dst
	})
}

// appendDeltaCells frames a sketch's wireDelta payload with each changed
// cell spelled by cell.
func appendDeltaCells(s *Sketch, epoch, base uint64, cell func(dst []byte, i int) []byte) []byte {
	dst := []byte{wireDelta}
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, base)
	dst = binary.AppendUvarint(dst, s.DeltaVersion())
	dst = binary.AppendUvarint(dst, uint64(s.now))
	dst = binary.AppendUvarint(dst, s.count)
	dst = binary.AppendUvarint(dst, s.salt)
	dst = binary.AppendUvarint(dst, s.seq)
	changed := 0
	for i := 0; i < s.d*s.w; i++ {
		if s.eh.CellChangedSince(i, base) {
			changed++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(changed))
	prev := 0
	var enc []byte
	for i := 0; i < s.d*s.w; i++ {
		if !s.eh.CellChangedSince(i, base) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		prev = i
		enc = cell(enc[:0], i)
		dst = binary.AppendUvarint(dst, uint64(len(enc)))
		dst = append(dst, enc...)
	}
	return dst
}

// TestGoldenDeltaFullFormFallback: a payload framed the old way — same
// header, full-form cells — must still apply, reconstructing exactly the
// same state as the bare-form golden. This is the compatibility half of the
// bare-cell change: old producers keep working against new receivers.
func TestGoldenDeltaFullFormFallback(t *testing.T) {
	final := deltaGoldenProducer(t, 1)
	baseVer := deltaGoldenProducer(t, 0).DeltaVersion()
	oldForm := appendDeltaFullForm(final, deltaGoldenEpoch, baseVer)

	bare, err := hex.DecodeString(deltaGoldenDeltaSizeFreeHex)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(oldForm, bare) {
		t.Fatal("full-form payload should differ from the bare golden (configs on the wire)")
	}
	if len(oldForm) <= len(bare) {
		t.Fatalf("full-form payload (%d B) not larger than bare (%d B); config elision buys nothing", len(oldForm), len(bare))
	}

	receiver := mustGoldenSketch(t, deltaGoldenBaseHex)
	if _, err := receiver.applyDelta(oldForm, deltaGoldenEpoch, baseVer, nil); err != nil {
		t.Fatalf("applying full-form delta: %v", err)
	}
	if got := hex.EncodeToString(receiver.Marshal()); got != deltaGoldenFinalSizeFreeHex {
		t.Fatalf("full-form reconstruction diverged:\n got %s\nwant %s", got, deltaGoldenFinalSizeFreeHex)
	}

	// A full-form cell whose embedded config does not match the receiver's
	// bank is rejected — the config check is what the bare form elides, not
	// skips.
	other, err := New(Params{Epsilon: 0.25, Delta: 0.25, WindowLength: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	other.epoch = deltaGoldenEpoch
	other.SetIDSalt(deltaGoldenSalt)
	other.AddN(3, 10, 5)
	mismatched := appendDeltaFullForm(other, deltaGoldenEpoch, 0)
	fresh := mustGoldenSketch(t, deltaGoldenBaseHex)
	if _, err := fresh.applyDelta(mismatched, deltaGoldenEpoch, 0, nil); err == nil {
		t.Fatal("full-form delta with mismatched cell config applied; want config error")
	}
}
