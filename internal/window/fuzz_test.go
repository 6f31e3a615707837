package window

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Fuzz targets: decoders must never panic on arbitrary bytes — they either
// reconstruct a queryable synopsis or return an error. `go test` exercises
// the seed corpus; `go test -fuzz=FuzzUnmarshalEH ./internal/window` digs
// deeper.

func fuzzSeeds(f *testing.F, enc []byte) {
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte{0xE1})
	f.Add([]byte{0xE2, 0x00})
	f.Add([]byte{0xE3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	if len(enc) > 4 {
		mut := append([]byte(nil), enc...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
		f.Add(enc[:len(enc)/2])
	}
}

func FuzzUnmarshalEH(f *testing.F) {
	h, err := NewEH(Config{Length: 1000, Epsilon: 0.1})
	if err != nil {
		f.Fatal(err)
	}
	for i := Tick(1); i <= 500; i++ {
		h.Add(i)
	}
	fuzzSeeds(f, h.Marshal())
	if golden, err := hex.DecodeString(ehGoldenHex); err == nil {
		f.Add(golden) // pre-refactor encoder output (see golden_test.go)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalEH(data)
		if err != nil {
			return
		}
		// Whatever decoded must answer queries without panicking and
		// respect basic sanity.
		w := dec.EstimateWindow()
		if w < 0 {
			t.Fatalf("negative estimate %v", w)
		}
		// The flat bank must also survive the raw bytes without panicking.
		// (Answers may legitimately differ on non-canonical encodings that
		// overfill a size class: the bank repairs while restoring, the
		// per-object decoder afterwards.)
		bank, err := NewEHBank(dec.Config(), 1)
		if err != nil {
			t.Fatalf("bank for decoded config: %v", err)
		}
		_ = bank.UnmarshalCell(0, data)
		// On the decoded histogram's canonical re-encoding the two decoders
		// must agree exactly.
		canon := dec.Marshal()
		bank2, err := NewEHBank(dec.Config(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := bank2.UnmarshalCell(0, canon); err != nil {
			t.Fatalf("bank rejected canonical encoding: %v", err)
		}
		if got := bank2.EstimateWindow(0); got != w {
			t.Fatalf("bank decoded EstimateWindow %v, EH %v", got, w)
		}
		if got := bank2.EstimateSince(0, dec.Now()/2); got != dec.EstimateSince(dec.Now()/2) {
			t.Fatalf("bank EstimateSince %v, EH %v", got, dec.EstimateSince(dec.Now()/2))
		}
		dec.Add(dec.Now() + 1)
		_ = dec.EstimateSince(0)
	})
}

// FuzzMarshal drives the per-object EH and a flat-bank cell with the same
// arbitrary gap/count stream and checks the full serialization contract:
// both engines emit byte-identical encodings, and decoding that encoding —
// into either engine — reproduces the original answers. This is the
// regression net for the arena layout: any divergence in cascade, expiry or
// wire order shows up as a mismatch here.
func FuzzMarshal(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 5}, uint16(50))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Add([]byte{255, 1, 255, 1, 9, 9, 9}, uint16(1000))
	f.Fuzz(func(t *testing.T, gaps []byte, since uint16) {
		cfg := Config{Length: 300, Epsilon: 0.15}
		h, err := NewEH(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bank, err := NewEHBank(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		var now Tick
		for _, g := range gaps {
			now += Tick(g % 11)
			n := uint64(g % 4) // n == 0 exercises the Advance path
			h.AddN(now, n)
			bank.AddN(1, now, n)
		}
		enc := h.Marshal()
		if got := bank.AppendMarshalCell(nil, 1); !bytes.Equal(got, enc) {
			t.Fatalf("bank encoding (%d bytes) differs from EH encoding (%d bytes)", len(got), len(enc))
		}
		dec, err := UnmarshalEH(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		bank2, err := NewEHBank(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := bank2.UnmarshalCell(0, enc); err != nil {
			t.Fatalf("bank round-trip decode failed: %v", err)
		}
		q := Tick(since)
		want := h.EstimateSince(q)
		if got := dec.EstimateSince(q); got != want {
			t.Fatalf("decoded EH EstimateSince(%d) = %v, original %v", q, got, want)
		}
		if got := bank2.EstimateSince(0, q); got != want {
			t.Fatalf("decoded bank EstimateSince(%d) = %v, original %v", q, got, want)
		}
		if dec.Total() != h.Total() || bank2.Total(0) != h.Total() {
			t.Fatalf("total mismatch: original %d, EH %d, bank %d", h.Total(), dec.Total(), bank2.Total(0))
		}
	})
}

func FuzzUnmarshalDW(f *testing.F) {
	w, err := NewDW(Config{Length: 1000, Epsilon: 0.1, UpperBound: 2000})
	if err != nil {
		f.Fatal(err)
	}
	for i := Tick(1); i <= 500; i++ {
		w.Add(i)
	}
	fuzzSeeds(f, w.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalDW(data)
		if err != nil {
			return
		}
		if got := dec.EstimateWindow(); got < 0 {
			t.Fatalf("negative estimate %v", got)
		}
		dec.Add(dec.Now() + 1)
	})
}

func FuzzUnmarshalRW(f *testing.F) {
	w, err := NewRW(Config{Length: 1000, Epsilon: 0.25, Delta: 0.2, UpperBound: 2000, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	for i := Tick(1); i <= 300; i++ {
		w.Add(i)
	}
	fuzzSeeds(f, w.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := UnmarshalRW(data)
		if err != nil {
			return
		}
		if got := dec.EstimateWindow(); got < 0 {
			t.Fatalf("negative estimate %v", got)
		}
		dec.Add(dec.Now() + 1)
	})
}

// FuzzEHStream drives the histogram with arbitrary gap/count sequences and
// checks the accuracy invariant against the exact counter — the core
// correctness property under adversarial arrival patterns.
func FuzzEHStream(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 5}, uint16(50))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Add([]byte{255, 1, 255, 1}, uint16(1000))
	f.Fuzz(func(t *testing.T, gaps []byte, since uint16) {
		const eps = 0.2
		cfg := Config{Length: 400, Epsilon: eps}
		h, _ := NewEH(cfg)
		x, _ := NewExact(cfg)
		var now Tick
		for _, g := range gaps {
			now += Tick(g % 9)
			n := uint64(g%3 + 1)
			h.AddN(now, n)
			x.AddN(now, n)
		}
		got := h.EstimateSince(Tick(since))
		want := float64(x.CountSince(Tick(since)))
		if diff := got - want; diff > eps*want+0.5 || diff < -eps*want-0.5 {
			t.Fatalf("estimate %v vs exact %v exceeds ε=%v", got, want, eps)
		}
		if err := h.checkInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}
