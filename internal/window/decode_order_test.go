package window_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// ehCellBody appends an EH cell body: now, the bucket count, then each
// bucket's raw (start delta, end delta, size) triple.
func ehCellBody(dst []byte, now uint64, triples ...[3]uint64) []byte {
	dst = binary.AppendUvarint(dst, now)
	dst = binary.AppendUvarint(dst, uint64(len(triples)))
	for _, tr := range triples {
		for _, v := range tr {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return dst
}

// lengthPrefixed is a cell as the sketch encodings frame it.
func lengthPrefixed(cell []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(cell))), cell...)
}

// spliceCell replaces the first framed copy of cell good in payload by bad.
func spliceCell(t *testing.T, payload, good, bad []byte) []byte {
	t.Helper()
	g := lengthPrefixed(good)
	at := bytes.Index(payload, g)
	if at < 0 {
		t.Fatalf("cell %x not found in payload", good)
	}
	out := append([]byte(nil), payload[:at]...)
	out = append(out, lengthPrefixed(bad)...)
	return append(out, payload[at+len(g):]...)
}

// TestDecodersRejectDisorderedCells pins the bucket-order invariant at every
// door a cell enters by: a cell encoding that breaks order — either tick
// delta wrapping past 2^64, a size of 0 or not a power of two, a size larger
// than the bucket before it — is rejected by EHBank.UnmarshalCell, by the
// per-object oracle UnmarshalEH, and by core whether it arrives inside a full
// snapshot or inside a 0xED delta. A canonical cell spliced the same way is
// accepted everywhere, so each rejection is the cell's, not the splice's.
func TestDecodersRejectDisorderedCells(t *testing.T) {
	const tick, key = 10, 7
	const wrap = ^uint64(0) // adding wrap-k to a tick steps back k+1
	rows := []struct {
		name    string
		triples [][3]uint64
	}{
		{"start delta wraps", [][3]uint64{{5, 0, 2}, {wrap - 2, 0, 1}}},
		{"end delta wraps", [][3]uint64{{5, 0, 2}, {1, wrap - 1, 1}}},
		{"size 0", [][3]uint64{{5, 0, 2}, {1, 0, 0}}},
		{"size 3", [][3]uint64{{5, 0, 4}, {1, 0, 3}}},
		{"size above its predecessor", [][3]uint64{{5, 0, 1}, {1, 0, 2}}},
	}
	canonical := [][3]uint64{{5, 0, 2}, {1, 0, 1}}

	// The producer: one key at one tick, so each touched cell holds the
	// single bucket [tick, tick] of size 1.
	split := core.SplitPoint(0.1)
	p := core.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1000, UpperBound: 1000, Seed: 3, Split: &split}
	s, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	full0, cur0, _, err := s.DeltaSnapshot(core.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	s.Add(key, tick)
	delta, cur1, isFull, err := s.DeltaSnapshot(cur0)
	if err != nil || isFull {
		t.Fatalf("second pull: full %v, err %v", isFull, err)
	}
	dense := s.Marshal()

	// The cell encodings as the sketch ships them: self-describing in a
	// full snapshot, config-elided in a delta.
	cfg := window.Config{Length: p.WindowLength, Epsilon: split.EpsSW, Delta: p.Delta / 2, UpperBound: p.UpperBound, Seed: p.Seed}
	empty, err := window.NewEHBank(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullHead := empty.AppendMarshalCell(nil, 0)
	fullHead = fullHead[:len(fullHead)-2] // drop the empty body: now 0, no buckets
	fullCell := func(triples ...[3]uint64) []byte {
		return ehCellBody(append([]byte(nil), fullHead...), tick, triples...)
	}
	bareCell := func(triples ...[3]uint64) []byte {
		return ehCellBody([]byte{0xE4}, tick, triples...)
	}
	touched := [3]uint64{tick, 0, 1}

	type verdict struct {
		door string
		err  error
	}
	decode := func(t *testing.T, triples [][3]uint64) []verdict {
		bank, err := window.NewEHBank(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, ehErr := window.UnmarshalEH(fullCell(triples...))
		_, fullErr := core.Unmarshal(spliceCell(t, dense, fullCell(touched), fullCell(triples...)))
		var st core.DeltaState
		if err := st.Apply(full0, cur0, true); err != nil {
			t.Fatal(err)
		}
		deltaErr := st.Apply(spliceCell(t, delta, bareCell(touched), bareCell(triples...)), cur1, false)
		return []verdict{
			{"EHBank.UnmarshalCell (full form)", bank.UnmarshalCell(0, fullCell(triples...))},
			{"EHBank.UnmarshalCell (bare form)", bank.UnmarshalCell(1, bareCell(triples...))},
			{"UnmarshalEH", ehErr},
			{"core.Unmarshal (full snapshot)", fullErr},
			{"DeltaState.Apply (0xED delta)", deltaErr},
		}
	}

	for _, v := range decode(t, canonical) {
		if v.err != nil {
			t.Fatalf("canonical cell: %s: %v", v.door, v.err)
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, v := range decode(t, row.triples) {
				if v.err == nil {
					t.Errorf("%s accepted the cell", v.door)
				}
			}
		})
	}
}
