package window_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// ehCell is an EH cell body after its tag (and Config): sized for the
// 0xE1/0xE4 form, size-free for the 0xE7/0xE8 one.
type ehCell struct {
	sized bool
	body  []byte
}

// sizedCell is a sized body: now, the bucket count, then each bucket's raw
// (start delta, end delta, size) triple.
func sizedCell(now uint64, triples ...[3]uint64) ehCell {
	dst := binary.AppendUvarint(nil, now)
	dst = binary.AppendUvarint(dst, uint64(len(triples)))
	for _, tr := range triples {
		for _, v := range tr {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return ehCell{true, dst}
}

// sizeFreeCell is a size-free body: now, then the raw values that follow
// it — the class count, the per-class bucket counts and the buckets.
func sizeFreeCell(now uint64, vals ...uint64) ehCell {
	dst := binary.AppendUvarint(nil, now)
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, v)
	}
	return ehCell{false, dst}
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
// door a cell enters by, in both EH forms: a cell encoding that breaks order
// — a tick delta wrapping past 2^64, a size of 0 or not a power of two, a
// size larger than the bucket before it, a size-1 bucket spanning ticks —
// or that claims more classes or buckets than it could hold is rejected by
// EHBank.UnmarshalCell, by the per-object oracle UnmarshalEH, and by core
// whether it arrives inside a full snapshot or inside a 0xED delta. A
// canonical cell spliced the same way is accepted everywhere, in either
// form, so each rejection is the cell's, not the splice's.
func TestDecodersRejectDisorderedCells(t *testing.T) {
	const tick, key = 10, 7
	const wrap = ^uint64(0) // adding wrap-k to a tick steps back k+1
	rows := []struct {
		name string
		cell ehCell
	}{ // the unprefixed rows are in the sized form
		{"start delta wraps", sizedCell(tick, [3]uint64{5, 0, 2}, [3]uint64{wrap - 2, 0, 1})},
		{"end delta wraps", sizedCell(tick, [3]uint64{5, 0, 4}, [3]uint64{1, wrap - 1, 2})},
		{"size 0", sizedCell(tick, [3]uint64{5, 0, 2}, [3]uint64{1, 0, 0})},
		{"size 3", sizedCell(tick, [3]uint64{5, 0, 4}, [3]uint64{1, 0, 3})},
		{"size above its predecessor", sizedCell(tick, [3]uint64{5, 0, 1}, [3]uint64{1, 0, 2})},
		{"size 1 spans two ticks", sizedCell(tick, [3]uint64{5, 0, 2}, [3]uint64{1, 1, 1})},
		{"size-free: start delta wraps at the class boundary", sizeFreeCell(tick, 2, 1, 1, 5, 0, wrap-2)},
		{"size-free: span wraps", sizeFreeCell(tick, 2, 1, 1, 5, wrap-1, 1)},
		{"size-free: 65 classes", sizeFreeCell(tick, 65, 1)},
		{"size-free: more buckets than bytes", sizeFreeCell(tick, 1, 1<<20, 1)},
	}
	canonical := []ehCell{
		sizedCell(tick, [3]uint64{5, 0, 2}, [3]uint64{1, 0, 1}),
		sizeFreeCell(tick, 2, 1, 1, 5, 0, 1),
	}

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
	fullHead = fullHead[:len(fullHead)-2] // drop the empty body: now 0, no classes
	fullCell := func(c ehCell) []byte {
		head := append([]byte(nil), fullHead...)
		if c.sized {
			head[0] = 0xE1
		}
		return append(head, c.body...)
	}
	bareCell := func(c ehCell) []byte {
		if c.sized {
			return append([]byte{0xE4}, c.body...)
		}
		return append([]byte{0xE8}, c.body...)
	}
	touched := sizeFreeCell(tick, 1, 1, tick) // as the producer ships it

	type verdict struct {
		door string
		err  error
	}
	decode := func(t *testing.T, c ehCell) []verdict {
		bank, err := window.NewEHBank(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, ehErr := window.UnmarshalEH(fullCell(c))
		_, fullErr := core.Unmarshal(spliceCell(t, dense, fullCell(touched), fullCell(c)))
		var st core.DeltaState
		if err := st.Apply(full0, cur0, true); err != nil {
			t.Fatal(err)
		}
		deltaErr := st.Apply(spliceCell(t, delta, bareCell(touched), bareCell(c)), cur1, false)
		return []verdict{
			{"EHBank.UnmarshalCell (full form)", bank.UnmarshalCell(0, fullCell(c))},
			{"EHBank.UnmarshalCell (bare form)", bank.UnmarshalCell(1, bareCell(c))},
			{"UnmarshalEH", ehErr},
			{"core.Unmarshal (full snapshot)", fullErr},
			{"DeltaState.Apply (0xED delta)", deltaErr},
		}
	}

	for _, c := range canonical {
		for _, v := range decode(t, c) {
			if v.err != nil {
				t.Fatalf("canonical cell (sized %v): %s: %v", c.sized, v.door, v.err)
			}
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, v := range decode(t, row.cell) {
				if v.err == nil {
					t.Errorf("%s accepted the cell", v.door)
				}
			}
		})
	}
}
