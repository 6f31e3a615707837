package core

import (
	"bytes"
	"testing"

	"ecmsketch/internal/window"
)

func deltaTestParams() Params {
	return Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1000, Seed: 42}
}

// TestCursorRoundTrip pins the wire form: zero ↔ "0"/"" and binary round
// trips, with malformed strings rejected.
func TestCursorRoundTrip(t *testing.T) {
	zero, err := ParseCursor("")
	if err != nil || !zero.IsZero() {
		t.Fatalf("empty string: got %+v, %v", zero, err)
	}
	if got := (Cursor{}).String(); got != "0" {
		t.Fatalf("zero cursor string = %q", got)
	}
	c := Cursor{Epoch: 0xdeadbeefcafe, Vers: []uint64{0, 7, 1 << 60}}
	back, err := ParseCursor(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != c.Epoch || len(back.Vers) != 3 || back.Vers[2] != 1<<60 {
		t.Fatalf("round trip: got %+v want %+v", back, c)
	}
	for _, bad := range []string{"!!!", "AAAA", "kg"} {
		if _, err := ParseCursor(bad); err == nil {
			t.Errorf("ParseCursor(%q) accepted", bad)
		}
	}
}

// TestDeltaReconstructsBitIdentical is the core equivalence property: a
// receiver that baselines once and then only ever applies deltas holds
// state byte-identical (Marshal) to the producer at every cursor, across
// mutation rounds, idle rounds (clock-only movement) and window expiry.
func TestDeltaReconstructsBitIdentical(t *testing.T) {
	s, err := New(deltaTestParams())
	if err != nil {
		t.Fatal(err)
	}
	var st DeltaState
	tick := Tick(1)
	for round := 0; round < 30; round++ {
		switch {
		case round%7 == 3:
			// Idle round: the clock moves (expiring content), nothing arrives.
			tick += 400
			s.Advance(tick)
		case round%5 == 4:
			// Dense round.
			var evs []Event
			for k := 0; k < 50; k++ {
				tick++
				evs = append(evs, Event{Key: uint64(k * 17), Tick: tick, N: uint64(k%3 + 1)})
			}
			s.AddBatch(evs)
		default:
			// Sparse round: a couple of keys move.
			tick += 90
			s.AddN(uint64(round), tick, 2)
			s.AddN(12345, tick, 1)
		}
		payload, cur, full, err := s.DeltaSnapshot(st.Cursor())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round > 0 && full {
			t.Fatalf("round %d: expected a delta, got a full snapshot", round)
		}
		if err := st.Apply(payload, cur, full); err != nil {
			t.Fatalf("round %d: apply: %v", round, err)
		}
		got, err := st.Materialize()
		if err != nil {
			t.Fatalf("round %d: materialize: %v", round, err)
		}
		if !bytes.Equal(got.Marshal(), s.Marshal()) {
			t.Fatalf("round %d: reconstruction diverged from producer", round)
		}
	}
	if st.DeltaApplies() < 25 || st.FullApplies() != 1 {
		t.Fatalf("applies: %d delta / %d full, want ≥25 / 1", st.DeltaApplies(), st.FullApplies())
	}
}

// TestDeltaSparsity: a one-key change ships a payload proportional to d
// cells, far below the full encoding.
func TestDeltaSparsity(t *testing.T) {
	p := deltaTestParams()
	p.Epsilon = 0.01 // wide sketch so one key touches a small fraction of cells
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		s.Add(uint64(k), Tick(k+1))
	}
	var st DeltaState
	payload, cur, full, _ := s.DeltaSnapshot(Cursor{})
	if !full {
		t.Fatal("bootstrap pull not full")
	}
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	fullLen := len(payload)
	s.Add(99999, 600)
	payload, cur, full, _ = s.DeltaSnapshot(st.Cursor())
	if full {
		t.Fatal("expected delta")
	}
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	if len(payload)*10 > fullLen {
		t.Fatalf("one-key delta %dB not ≪ full %dB", len(payload), fullLen)
	}
	got, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), s.Marshal()) {
		t.Fatal("sparse delta reconstruction diverged")
	}
}

// TestDeltaWaveCellGranular: since the wave engines moved onto the flat
// arenas they ship cell-granular deltas exactly like the exponential
// histograms — empty when idle, a few changed cells (not a full snapshot)
// after a single-key mutation, reconstructing byte-identically.
func TestDeltaWaveCellGranular(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			p := deltaTestParams()
			p.Algorithm = algo
			p.UpperBound = 1 << 16
			s, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(1, 1)
			var st DeltaState
			payload, cur, full, _ := s.DeltaSnapshot(st.Cursor())
			if !full {
				t.Fatal("bootstrap pull not full")
			}
			if err := st.Apply(payload, cur, full); err != nil {
				t.Fatal(err)
			}
			// Idle: an empty delta, applied cleanly.
			payload, cur, full, _ = s.DeltaSnapshot(st.Cursor())
			if full {
				t.Fatal("idle wave pull should be an (empty) delta")
			}
			if len(payload) > 64 {
				t.Fatalf("idle wave delta is %dB", len(payload))
			}
			if err := st.Apply(payload, cur, full); err != nil {
				t.Fatal(err)
			}
			// Mutated: an incremental delta shipping only the touched cells,
			// far below a full snapshot.
			fullLen := len(s.Marshal())
			s.Add(2, 5)
			payload, cur, full, _ = s.DeltaSnapshot(st.Cursor())
			if full {
				t.Fatal("mutated wave pull should be an incremental delta")
			}
			if len(payload)*4 > fullLen {
				t.Fatalf("one-key wave delta %dB not ≪ full %dB", len(payload), fullLen)
			}
			if err := st.Apply(payload, cur, full); err != nil {
				t.Fatal(err)
			}
			got, err := st.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), s.Marshal()) {
				t.Fatal("wave reconstruction diverged")
			}
		})
	}
}

// TestDeltaExpiryJoinsChangeFeed: applying a delta that advances the
// receiver's clock replays the producer's expiry, and the cells that
// replay mutates must join the changed-cell feed even though no encoding
// for them was shipped — their estimates moved (for the wave synopses
// possibly upward, when expiry forces a coarser level), and standing-query
// evaluation over the feed must treat them as touched.
func TestDeltaExpiryJoinsChangeFeed(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			p := deltaTestParams()
			p.Algorithm = algo
			p.UpperBound = 1 << 16
			s, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 8; k++ {
				s.Add(uint64(k), Tick(k+1))
			}
			var st DeltaState
			payload, cur, full, _ := s.DeltaSnapshot(st.Cursor())
			if err := st.Apply(payload, cur, full); err != nil {
				t.Fatal(err)
			}
			st.TakeChangedCells() // drop the baseline's changed-all marker

			// Pure advance far past the window: every cell's content expires
			// on the producer, and the pull ships a delta with zero cell
			// encodings — only the new clock.
			s.Advance(5000)
			payload, cur, full, _ = s.DeltaSnapshot(st.Cursor())
			if full {
				t.Fatal("advance-only pull should be a delta")
			}
			if err := st.Apply(payload, cur, full); err != nil {
				t.Fatal(err)
			}
			cells, all := st.TakeChangedCells()
			if all {
				t.Fatal("advance-only delta must keep cell granularity")
			}
			if len(cells) == 0 {
				t.Fatal("expiry emptied every touched cell, yet the change feed is empty")
			}
			got, err := st.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), s.Marshal()) {
				t.Fatal("expiry replay diverged from producer")
			}

			// A second identical pull changes nothing and notes nothing.
			payload, cur, full, _ = s.DeltaSnapshot(st.Cursor())
			if err := st.Apply(payload, cur, full); err != nil {
				t.Fatal(err)
			}
			if cells, all := st.TakeChangedCells(); all || len(cells) != 0 {
				t.Fatalf("idle pull noted changes: %v all=%v", cells, all)
			}
		})
	}
}

// TestAdvanceNotingNilNote: note is optional — both production callers of
// PatchMerged pass nil — so an advance that expires content must report
// nothing rather than call it, on every bank.
func TestAdvanceNotingNilNote(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			p := deltaTestParams()
			p.Algorithm = algo
			p.UpperBound = 1 << 16
			s, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 8; k++ {
				s.Add(uint64(k), Tick(k+1))
			}
			want, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want.Advance(5000)
			s.AdvanceNoting(5000, nil)
			if !bytes.Equal(s.Marshal(), want.Marshal()) {
				t.Fatal("AdvanceNoting(t, nil) diverged from Advance(t)")
			}
		})
	}
}

// TestDeltaIndexOverflowRejected: a crafted payload whose cell- or
// part-index varint would wrap int must error (and drop the baseline), not
// panic — a compromised site must never crash the coordinator.
func TestDeltaIndexOverflowRejected(t *testing.T) {
	s, err := New(deltaTestParams())
	if err != nil {
		t.Fatal(err)
	}
	s.Add(1, 1)
	craft := func(changed bool) []byte {
		// Header: tag, epoch, base, ver, now, count, salt, seq, nChanged=1,
		// then a cell index increment of 2^63.
		dst := []byte{wireDelta}
		for _, v := range []uint64{s.epoch, s.DeltaVersion(), s.DeltaVersion(), 5, 1, s.salt, s.seq, 1} {
			dst = appendUvarintForTest(dst, v)
		}
		if changed {
			dst = appendUvarintForTest(dst, 1<<63)
			dst = appendUvarintForTest(dst, 0)
		}
		return dst
	}
	var st DeltaState
	payload, cur, full, _ := s.DeltaSnapshot(Cursor{})
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	evil := craft(true)
	if err := st.Apply(evil, st.Cursor(), false); err == nil {
		t.Fatal("overflowing cell index accepted")
	}
	if st.HasBaseline() {
		t.Fatal("overflowing payload left a baseline in use")
	}

	// Multipart part-index variant against a sharded-shaped baseline.
	parts := [][]byte{s.Marshal(), s.Marshal()}
	epoch := NewEpoch()
	base := EncodeMultiFull(epoch, s.Now(), parts)
	cur = Cursor{Epoch: epoch, Vers: []uint64{1, 1}}
	var mst DeltaState
	if err := mst.Apply(base, cur, true); err != nil {
		t.Fatal(err)
	}
	evil = []byte{wireMultiDelta}
	for _, v := range []uint64{epoch, 2, 5, 1, 1 << 63, 0} { // partIdx increment 2^63
		evil = appendUvarintForTest(evil, v)
	}
	if err := mst.Apply(evil, cur, false); err == nil {
		t.Fatal("overflowing part index accepted")
	}
}

func appendUvarintForTest(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// TestDeltaInvalidation: unknown epochs, future versions and torn payloads
// reject, drop the baseline, and recover through the next full pull.
func TestDeltaInvalidation(t *testing.T) {
	s, err := New(deltaTestParams())
	if err != nil {
		t.Fatal(err)
	}
	s.Add(1, 1)
	var st DeltaState
	payload, cur, full, _ := s.DeltaSnapshot(Cursor{})
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}

	// Producer restart: a fresh engine with the same content has a new
	// epoch, so the held cursor yields a full snapshot.
	s2, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	_, _, full, _ = s2.DeltaSnapshot(st.Cursor())
	if !full {
		t.Fatal("restarted producer must not honor a stale-epoch cursor")
	}

	// Future cursor: versions the producer never issued yield full.
	bad := st.Cursor()
	bad.Vers[0] += 1000
	_, _, full, _ = s.DeltaSnapshot(bad)
	if !full {
		t.Fatal("future cursor must yield a full snapshot")
	}

	// Torn delta body: applying a truncated payload errors and drops the
	// baseline, so the next pull re-baselines.
	s.Add(2, 10)
	payload, cur, full, _ = s.DeltaSnapshot(st.Cursor())
	if full {
		t.Fatal("expected delta")
	}
	if err := st.Apply(payload[:len(payload)-3], cur, full); err == nil {
		t.Fatal("torn delta accepted")
	}
	if st.HasBaseline() {
		t.Fatal("torn apply must drop the baseline")
	}
	if !st.Cursor().IsZero() {
		t.Fatal("cursor after torn apply must be zero")
	}
	payload, cur, full, _ = s.DeltaSnapshot(st.Cursor())
	if !full {
		t.Fatal("zero cursor must yield full")
	}
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	got, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), s.Marshal()) {
		t.Fatal("recovery reconstruction diverged")
	}
}

// TestMultipartRejectsUnmergeableParts: the parts of a multipart state exist
// to be merged, so a baseline — or a whole-part replacement — whose parts
// Merge would refuse is rejected at Apply, not discovered at Materialize
// (found by FuzzDeltaApply: a bit flip in one part's header was accepted and
// the state then failed every materialization).
func TestMultipartRejectsUnmergeableParts(t *testing.T) {
	build := func(seed uint64) *Sketch {
		p := deltaTestParams()
		p.Seed = seed
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(seed, 1)
		return s
	}
	a, b, foreign := build(42), build(42), build(43)
	const epoch = 7
	cur := Cursor{Epoch: epoch, Vers: []uint64{a.DeltaVersion(), b.DeltaVersion()}}

	var st DeltaState
	bad := EncodeMultiFull(epoch, 1, [][]byte{a.Marshal(), foreign.Marshal()})
	if err := st.Apply(bad, cur, true); err == nil {
		t.Fatal("baseline with incompatible parts accepted")
	}
	if st.HasBaseline() {
		t.Fatal("refused baseline left in use")
	}

	good := EncodeMultiFull(epoch, 1, [][]byte{a.Marshal(), b.Marshal()})
	if err := st.Apply(good, cur, true); err != nil {
		t.Fatal(err)
	}
	next := cur.Clone()
	next.Vers[1]++
	swap := EncodeMultiDelta(epoch, 1, 2, []PartDelta{{Index: 1, Payload: foreign.Marshal()}})
	if err := st.Apply(swap, next, false); err == nil {
		t.Fatal("incompatible whole-part replacement accepted")
	}
	if st.HasBaseline() {
		t.Fatal("refused replacement left the baseline in use")
	}
}
