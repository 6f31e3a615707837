package window

import (
	"bytes"
	"testing"
)

// TestBankVersioning pins the change-tracking contract behind delta
// snapshots: arrivals bump the bank version and stamp their cell; clock
// movement (Advance, even one that expires buckets) does not; Reset marks
// every cell changed.
func TestBankVersioning(t *testing.T) {
	cfg := Config{Length: 100, Epsilon: 0.2}
	b, err := NewEHBank(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Version() != 0 {
		t.Fatalf("fresh bank version %d", b.Version())
	}
	b.AddN(2, 10, 3)
	v1 := b.Version()
	if v1 == 0 || !b.CellChangedSince(2, 0) || b.CellChangedSince(1, 0) {
		t.Fatalf("AddN stamping wrong: version %d", v1)
	}
	// Advancing far enough to expire cell 2's content moves no versions:
	// expiry is the receiver's job, replayed deterministically by clock.
	AdvanceAll(b, 500, nil)
	if b.Total(2) != 0 {
		t.Fatal("expected expiry")
	}
	if b.Version() != v1 || b.CellChangedSince(2, v1) {
		t.Fatal("Advance must not bump versions")
	}
	b.Reset()
	for i := 0; i < 4; i++ {
		if !b.CellChangedSince(i, v1) {
			t.Fatalf("Reset did not mark cell %d changed", i)
		}
	}
}

// TestResetCellRestoresBitIdentical: resetting a cell and decoding another
// cell's encoding into it reproduces that encoding exactly — the receiver
// half of a cell-granular delta.
func TestResetCellRestoresBitIdentical(t *testing.T) {
	cfg := Config{Length: 1000, Epsilon: 0.1}
	b, err := NewEHBank(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		b.AddN(0, Tick(i+1), uint64(i%3+1))
		if i%2 == 0 {
			b.AddN(1, Tick(i+1), 1)
		}
	}
	enc0 := b.AppendMarshalCell(nil, 0)

	// Overwrite cell 1 with cell 0's state.
	b.ResetCell(1)
	if b.Total(1) != 0 || b.NumBuckets(1) != 0 {
		t.Fatal("ResetCell left content")
	}
	if err := b.UnmarshalCell(1, enc0); err != nil {
		t.Fatal(err)
	}
	enc1 := b.AppendMarshalCell(nil, 1)
	if !bytes.Equal(enc0, enc1) {
		t.Fatal("restored cell does not re-encode bit-identically")
	}
	// And the restored cell keeps working: arrivals and expiry behave.
	b.AddN(1, 2000, 1)
	if b.Total(1) == 0 {
		t.Fatal("restored cell rejected arrivals")
	}
}
