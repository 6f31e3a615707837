package window

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The flat bank is a layout change, not an algorithm change: every test here
// drives an EHBank cell and a per-object EH with the same stream and demands
// bit-identical behaviour — estimates, bucket lists, encodings, merges.

// ehStream is one deterministic pseudo-random arrival stream.
type ehStream struct {
	t Tick
	n uint64
}

func randomStream(rng *rand.Rand, events int, maxGap, maxN int) []ehStream {
	s := make([]ehStream, events)
	var now Tick
	for i := range s {
		now += Tick(rng.Intn(maxGap + 1)) // gap 0 keeps same-tick bursts common
		s[i] = ehStream{t: now, n: uint64(rng.Intn(maxN) + 1)}
	}
	return s
}

func checkCellEqualsEH(t *testing.T, b *EHBank, i int, h *EH) {
	t.Helper()
	if got, want := b.Now(i), h.Now(); got != want {
		t.Fatalf("Now: bank %d, EH %d", got, want)
	}
	if got, want := b.Total(i), h.Total(); got != want {
		t.Fatalf("Total: bank %d, EH %d", got, want)
	}
	hb, bb := h.Buckets(), b.Buckets(i)
	if len(hb) != len(bb) {
		t.Fatalf("bucket count: bank %d, EH %d", len(bb), len(hb))
	}
	for j := range hb {
		if hb[j] != bb[j] {
			t.Fatalf("bucket %d: bank %+v, EH %+v", j, bb[j], hb[j])
		}
	}
	checkOldestCached(t, b, i)
	now := h.Now()
	sinces := []Tick{0, 1, now / 3, now / 2, now - 1, now}
	if len(hb) > 0 {
		// The header answers a boundary before the oldest bucket's end and
		// the walk one at or after it: ask on both sides of both edges.
		o := hb[0]
		sinces = append(sinces, o.Start-1, o.Start, o.End-1, o.End)
	}
	for _, since := range sinces {
		got, want := b.EstimateSince(i, since), h.EstimateSince(since)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EstimateSince(%d): bank %v, EH %v", since, got, want)
		}
	}
	for _, r := range []Tick{0, 1, now / 2, now, now * 2} {
		if got, want := b.EstimateRange(i, r), h.EstimateRange(r); got != want {
			t.Fatalf("EstimateRange(%d): bank %v, EH %v", r, got, want)
		}
	}
	if got, want := b.EstimateRange(i, b.Config().Length), h.EstimateWindow(); got != want {
		t.Fatalf("EstimateWindow: bank %v, EH %v", got, want)
	}
	if got, want := b.AppendMarshalCell(nil, i), h.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("encodings differ: bank %d bytes, EH %d bytes", len(got), len(want))
	}
}

// checkOldestCached asserts the header invariant of a non-empty cell i:
// (oldLv, oldEnd, oldSpan) name the front bucket of its highest non-empty
// level, with oldSpan at spanUnknown when that bucket spans 2^32−1 ticks or
// more.
func checkOldestCached(t *testing.T, b *EHBank, i int) {
	t.Helper()
	c := &b.cells[i]
	if c.total == 0 {
		return
	}
	lv := int(c.nLv) - 1
	for lv >= 0 && b.level(i, lv).n == 0 {
		lv--
	}
	if lv < 0 {
		t.Fatalf("cell %d: total %d with no buckets", i, c.total)
	}
	f := b.front(b.level(i, lv))
	span := uint32(math.MaxUint32)
	if f.end-f.start < math.MaxUint32 {
		span = uint32(f.end - f.start)
	}
	if int(c.oldLv) != lv || c.oldEnd != f.end || c.oldSpan != span {
		t.Fatalf("cell %d header (lv %d, end %d, span %d), oldest bucket (lv %d, %+v, span %d)",
			i, c.oldLv, c.oldEnd, c.oldSpan, lv, f, span)
	}
}

func TestEHCellIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(ehCell{}); got != 32 {
		t.Fatalf("ehCell is %d bytes, want 32: one header per half cache line", got)
	}
}

func TestBankMatchesEHRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{
		{Length: 1 << 12, Epsilon: 0.05},
		{Length: 1 << 12, Epsilon: 0.2},
		{Length: 200, Epsilon: 0.5}, // tiny rings, heavy cascading and expiry
		{Length: 64, Epsilon: 0.01}, // wide rings, constant expiry
		{Length: 1 << 20, Epsilon: 0.1, Model: CountBased},
	} {
		for trial := 0; trial < 8; trial++ {
			b, err := NewEHBank(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewEH(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Cell 1 receives the stream; neighbours stay empty to catch
			// cross-cell bleed through the shared slabs.
			for _, ev := range randomStream(rng, 4000, 4, 3) {
				b.AddN(1, ev.t, ev.n)
				h.AddN(ev.t, ev.n)
			}
			checkCellEqualsEH(t, b, 1, h)
			for _, i := range []int{0, 2} {
				if b.Total(i) != 0 || b.NumBuckets(i) != 0 || b.EstimateRange(i, b.Config().Length) != 0 {
					t.Fatalf("cfg %+v: untouched cell %d not empty", cfg, i)
				}
			}
		}
	}
}

// TestBankHeaderTracksEveryMutation drives every EH mutation — AddN (n = 0
// too), both batch sweeps, Advance, MergeCellFrom, ResetCell with
// UnmarshalCell, and Clone — over cells fed random streams, some with tick
// gaps past 2^32 so the oldest bucket's span overflows the header, and
// checks after each that every cell's header names its oldest bucket and the
// cell answers bit-identically to the per-object oracle.
func TestBankHeaderTracksEveryMutation(t *testing.T) {
	for _, cfg := range []Config{
		{Length: 200, Epsilon: 0.5}, // tiny rings, heavy cascading and expiry
		{Length: 1 << 12, Epsilon: 0.1},
		{Length: 1 << 40, Epsilon: 0.25}, // 2^32-tick spans stay in the window
	} {
		const cells = 4
		rng := rand.New(rand.NewSource(int64(cfg.Length)))
		b, err := NewEHBank(cfg, cells)
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*EH, cells)
		for i := range hs {
			if hs[i], err = NewEH(cfg); err != nil {
				t.Fatal(err)
			}
		}
		now := Tick(1)
		step := func() Tick {
			switch rng.Intn(24) {
			case 0:
				now += 1<<32 + Tick(rng.Intn(1<<10))
			case 1:
				now += cfg.Length / 2
			default:
				now += Tick(rng.Intn(3))
			}
			return now
		}
		unknownSpans := 0
		check := func() {
			t.Helper()
			for i := range hs {
				checkCellEqualsEH(t, b, i, hs[i])
				if b.cells[i].total > 0 && b.cells[i].oldSpan == spanUnknown {
					unknownSpans++
				}
			}
		}
		for op := 0; op < 500; op++ {
			i := rng.Intn(cells)
			switch rng.Intn(8) {
			case 0, 1:
				tk, n := step(), uint64(rng.Intn(4))
				b.AddN(i, tk, n)
				hs[i].AddN(tk, n)
			case 2, 3:
				m := 1 + rng.Intn(40)
				pos, ticks, ns := make([]int32, m), make([]Tick, m), make([]uint64, m)
				for e := range pos {
					pos[e], ticks[e], ns[e] = int32(rng.Intn(cells)), step(), uint64(1+rng.Intn(3))
				}
				if rng.Intn(2) == 0 {
					ns = nil // every event is one arrival
				}
				var order []int32 // nil: batch order
				if rng.Intn(2) == 0 {
					for c := int32(0); c < cells; c++ { // grouped by cell, batch order within
						for e := range pos {
							if pos[e] == c {
								order = append(order, int32(e))
							}
						}
					}
				}
				b.AddBatchRow(0, pos, ticks, ns, order)
				for e := range pos {
					n := uint64(1)
					if ns != nil {
						n = ns[e]
					}
					hs[pos[e]].AddN(ticks[e], n)
				}
			case 4:
				tk := step()
				b.Advance(i, tk)
				hs[i].Advance(tk)
			case 5:
				enc := b.AppendMarshalCell(nil, i)
				b.ResetCell(i)
				if b.Total(i) != 0 || b.NumBuckets(i) != 0 {
					t.Fatalf("cell %d not empty after ResetCell", i)
				}
				if err := b.UnmarshalCell(i, enc); err != nil {
					t.Fatal(err)
				}
			case 6:
				b = b.Clone().(*EHBank)
			case 7:
				j := rng.Intn(cells)
				x := b.Clone().(*EHBank)
				y, _ := NewEHBank(cfg, cells)
				if err := y.UnmarshalCell(i, hs[j].Marshal()); err != nil {
					t.Fatal(err)
				}
				want, err := MergeEH(cfg, hs[i], hs[j])
				if err != nil {
					t.Fatal(err)
				}
				b.ResetCell(i)
				b.MergeCellFrom(i, i, max(hs[i].Now(), hs[j].Now()), []*EHBank{x, y})
				hs[i] = want
			}
			check()
		}
		if cfg.Length > 1<<32 && unknownSpans == 0 {
			t.Fatalf("cfg %+v: no oldest bucket spanned 2^32 ticks; the walk fallback never ran", cfg)
		}
	}
}

func TestBankIndependentCells(t *testing.T) {
	cfg := Config{Length: 1 << 10, Epsilon: 0.1}
	const cells = 17
	b, err := NewEHBank(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*EH, cells)
	for i := range hs {
		if hs[i], err = NewEH(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave independent streams across all cells, with different
	// densities so cells grow different level structures (forcing directory
	// growth for the busy ones while sparse ones stay at one level).
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 30000; step++ {
		i := rng.Intn(cells)
		t1 := Tick(step/10 + 1)
		n := uint64(i%3 + 1)
		b.AddN(i, t1, n)
		hs[i].AddN(t1, n)
	}
	for i := range hs {
		checkCellEqualsEH(t, b, i, hs[i])
	}
	// Advance far enough to expire everything, cell by cell.
	far := Tick(1 << 20)
	for i := range hs {
		b.Advance(i, far)
		hs[i].Advance(far)
		checkCellEqualsEH(t, b, i, hs[i])
		if b.Total(i) != 0 {
			t.Fatalf("cell %d not empty after expiry", i)
		}
	}
}

func TestBankAdvanceAllAndReset(t *testing.T) {
	cfg := Config{Length: 100, Epsilon: 0.2}
	b, err := NewEHBank(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for tk := Tick(1); tk <= 50; tk++ {
			b.Add(i, tk)
		}
	}
	AdvanceAll(b, 120, nil)
	for i := 0; i < 4; i++ {
		if got := b.Now(i); got != 120 {
			t.Fatalf("cell %d Now = %d after AdvanceAll", i, got)
		}
		// Ticks 1..20 fell out of the (20,120] window.
		if got := b.EstimateRange(i, b.Config().Length); got < 25 || got > 35 {
			t.Fatalf("cell %d estimate %v after expiry, want ≈30", i, got)
		}
	}
	b.Reset()
	for i := 0; i < 4; i++ {
		if b.Total(i) != 0 || b.Now(i) != 0 || b.EstimateRange(i, b.Config().Length) != 0 {
			t.Fatalf("cell %d not reset", i)
		}
	}
	// Refill after Reset reuses the retained arena; behaviour must match a
	// fresh histogram exactly.
	h, _ := NewEH(cfg)
	for tk := Tick(1); tk <= 80; tk++ {
		b.AddN(2, tk, 2)
		h.AddN(tk, 2)
	}
	checkCellEqualsEH(t, b, 2, h)
}

func TestBankUnmarshalCellRoundTrip(t *testing.T) {
	cfg := Config{Length: 1 << 12, Epsilon: 0.05}
	h, err := NewEH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, ev := range randomStream(rng, 5000, 3, 2) {
		h.AddN(ev.t, ev.n)
	}
	enc := h.Marshal()

	b, err := NewEHBank(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalCell(1, enc); err != nil {
		t.Fatalf("UnmarshalCell: %v", err)
	}
	checkCellEqualsEH(t, b, 1, h)

	// Mismatched configuration is rejected rather than silently adopted.
	other, err := NewEHBank(Config{Length: 1 << 11, Epsilon: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.UnmarshalCell(0, enc); err == nil {
		t.Fatal("UnmarshalCell accepted an encoding with a different config")
	}
	// Truncated input errors out instead of panicking.
	if err := b.UnmarshalCell(0, enc[:len(enc)/2]); err == nil {
		t.Fatal("UnmarshalCell accepted truncated input")
	}
}

func TestBankMergeCellMatchesMergeEH(t *testing.T) {
	cfg := Config{Length: 1 << 11, Epsilon: 0.1, Model: TimeBased}
	rng := rand.New(rand.NewSource(9))
	a, _ := NewEH(cfg)
	c, _ := NewEH(cfg)
	for _, ev := range randomStream(rng, 3000, 2, 2) {
		a.AddN(ev.t, ev.n)
	}
	for _, ev := range randomStream(rng, 2000, 3, 3) {
		c.AddN(ev.t, ev.n)
	}
	want, err := MergeEH(cfg, a, c)
	if err != nil {
		t.Fatal(err)
	}
	now := a.Now()
	if c.Now() > now {
		now = c.Now()
	}
	b, err := NewEHBank(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	asBank := func(h *EH) *EHBank {
		in, err := NewEHBank(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.UnmarshalCell(2, h.Marshal()); err != nil {
			t.Fatal(err)
		}
		return in
	}
	b.MergeCellFrom(2, 2, now, []*EHBank{asBank(a), asBank(c)})
	checkCellEqualsEH(t, b, 2, want)
}

func TestBankMemoryBytesAndLen(t *testing.T) {
	cfg := Config{Length: 1 << 12, Epsilon: 0.05}
	b, err := NewEHBank(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 8 {
		t.Fatalf("Len = %d", b.Len())
	}
	validated := cfg
	if err := validated.Validate(AlgoEH); err != nil {
		t.Fatal(err)
	}
	if b.Config() != validated {
		t.Fatalf("Config = %+v, want %+v", b.Config(), validated)
	}
	empty := b.MemoryBytes()
	if empty <= 0 {
		t.Fatalf("empty MemoryBytes = %d", empty)
	}
	for tk := Tick(1); tk <= 10000; tk++ {
		b.Add(int(tk)%8, tk)
	}
	if full := b.MemoryBytes(); full <= empty {
		t.Fatalf("MemoryBytes did not grow: empty %d, full %d", empty, full)
	}
}

func TestNewEHBankValidation(t *testing.T) {
	if _, err := NewEHBank(Config{Length: 0, Epsilon: 0.1}, 1); err == nil {
		t.Error("zero-length window accepted")
	}
	if _, err := NewEHBank(Config{Length: 10, Epsilon: 0.1}, 0); err == nil {
		t.Error("empty bank accepted")
	}
	if _, err := NewEHBank(Config{Length: 10, Epsilon: 2}, 1); err == nil {
		t.Error("invalid epsilon accepted")
	}
}
