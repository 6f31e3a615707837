package window

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestMergeLayoutMatchesUnitReplay pins MergeCellFrom, which lays the replay
// prefix before the first expiry out from its arrival count, to the unit
// replay of the lower-sort-replay oracle: cell bytes, cell header and version
// vector, for ε ∈ {0.25, 0.05, 0.02}, k ∈ {1, 2, 8} inputs of up to ~10^5
// arrivals per merged cell, into a fresh destination cell and into one that
// held content and was ResetCell'd. Each regime checks that it is what it
// says: nothing expires; the first expiry fires strictly inside the replay;
// the oldest merged bucket spans 2^32 ticks or more. The inputs keep a 2^20
// window or longer, so under a shorter merged window the replay runs past
// its own expiry.
func TestMergeLayoutMatchesUnitReplay(t *testing.T) {
	dense := func(rng *rand.Rand, _ int) Tick { return Tick(rng.Intn(3)) }
	// A regime is the merged cell's window length, the input stream's tick
	// step before each event, and a check that the merge has that shape.
	regimes := []struct {
		name   string
		length Tick
		step   func(rng *rand.Rand, event int) Tick
		check  func(t *testing.T, got *EHBank, fired int, sum uint64)
	}{
		{"no-expiry", 1 << 20, dense, func(t *testing.T, got *EHBank, fired int, sum uint64) {
			if got.Total(0) != sum {
				t.Fatalf("merged total %d, inputs hold %d: something expired", got.Total(0), sum)
			}
		}},
		{"mid-replay-expiry", 1 << 12, dense, func(t *testing.T, got *EHBank, fired int, sum uint64) {
			if fired == 0 || fired >= len(got.replay)-1 {
				t.Fatalf("first expiry after event %d of %d: not inside the replay", fired, len(got.replay))
			}
		}},
		{"span-unknown", 1 << 40, func(rng *rand.Rand, event int) Tick {
			if event == 32 {
				return 1<<32 + Tick(rng.Intn(1<<10))
			}
			return dense(rng, event)
		}, func(t *testing.T, got *EHBank, fired int, sum uint64) {
			if got.cells[0].oldSpan != spanUnknown {
				t.Fatalf("oldest bucket span %d: the 2^32 gap is not inside it", got.cells[0].oldSpan)
			}
		}},
	}
	for _, rg := range regimes {
		for _, eps := range []float64{0.25, 0.05, 0.02} {
			for _, k := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/eps=%v/k=%d", rg.name, eps, k), func(t *testing.T) {
					cfg := Config{Length: rg.length, Epsilon: eps}
					inCfg := Config{Length: max(rg.length, 1<<20), Epsilon: eps}
					rng := rand.New(rand.NewSource(int64(k)*1000 + int64(eps*100)))
					ins := make([]*EHBank, k)
					for j := range ins {
						in, err := NewEHBank(inCfg, 1)
						if err != nil {
							t.Fatal(err)
						}
						ins[j] = in
					}
					var now Tick = 1
					for a, e := 0, 0; a < 100_000; e++ {
						now += rg.step(rng, e)
						n := 1 + rng.Intn(4)
						ins[rng.Intn(k)].AddN(0, now, uint64(n))
						a += n
					}
					held := make([][]Bucket, k)
					var sum uint64
					for j, in := range ins {
						in.Advance(0, now)
						held[j] = in.Buckets(0)
						sum += in.Total(0)
					}

					got, _ := NewEHBank(cfg, 2)
					want, _ := NewEHBank(cfg, 2)
					// Cell 1 held content deeper than the replay needs.
					for _, b := range []*EHBank{got, want} {
						b.RestoreBucket(1, Bucket{Start: 1, End: 2, Size: 1 << 30})
						b.NormalizeRestored(1)
						b.ResetCell(1)
					}
					for i := 0; i < 2; i++ {
						got.MergeCellFrom(i, 0, now, ins)
						oracleMergeCell(want, i, now, held)
						requireCellsIdentical(t, got, i, want, i)
					}
					requireVersionsIdentical(t, got, want)
					rg.check(t, got, got.firstExpiry(got.replay), sum)
				})
			}
		}
	}
}

// FuzzMergeBound checks the multi-level bound of Section 5.1 on the bank
// merges coordinators run, for exponential histograms and deterministic
// waves alike. Fuzz bytes become one stream split across k ∈ [1, 12] input
// cells — arbitrary tick gaps and multiplicities, dense runs at one tick,
// sparse steps and jumps past the window — merged through MergeCellFrom in a
// tree of depth h ∈ {1, 2, 3}, each merge at its inputs' high-water clock.
// At every edge of every input — each EH bucket's start and end, each stored
// DW position — the root's estimate must be within
// MultiLevelRelativeError(ε, h)·exact + 1 of an exact count (the +1 is the
// fixed-stream merge tests' slack, EH and DW). The DW banks' upper bound is
// the stream's whole mass, so u(N,S) holds at every tier. The window-counter
// bound is deterministic, so any failure is a defect, never bad luck.
func FuzzMergeBound(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0, 1, 1, 0x61, 2, 0, 0x10, 3})
	f.Add(uint16(12*2+11), bytes.Repeat([]byte{3, 0x62, 0x41, 7, 0x21, 0xf0, 1, 0x85, 0x10}, 30))
	f.Add(uint16(36+12+5), bytes.Repeat([]byte{0, 0x01, 0xff, 1, 0x21, 0x80, 2, 0xc3, 0x01}, 40))
	f.Add(uint16(108*3+36*2+24+7), bytes.Repeat([]byte{5, 0x60, 0x11, 2, 0xe0, 0x02, 9, 0x01, 0x9f}, 50))
	// Found by the fuzzer against a replay that drops a quarter of every
	// bucket's end half: k=8, h=3, ε=0.05, W=512.
	f.Add(uint16(427), []byte("2021022a10020011a00091a70020091a2002009"))
	// Found by the fuzzer in DW, k=11, h=3, W=64: a burst of 240 at tick 1,
	// then 2 arrivals past the window, which the waves read as 0 once the
	// burst expired (ε=0.1); and 975 arrivals at one tick, read as 754.5
	// once every merge's replay dropped its input's unseen head (ε=0.05).
	f.Add(uint16(70), []byte("20\xf00\xf01"))
	f.Add(uint16(106), bytes.Repeat([]byte("20\xc3"), 5))
	// Twelve sparse inputs, one unit arrival each at every tick, merged at
	// depth 1 (ε=0.25, W=64): the regime where a replay that puts a
	// one-arrival segment at its older tick loses one arrival per input at
	// every boundary.
	sparse12 := []byte{0, 0x61, 0}
	for in := byte(1); in < 12; in++ {
		sparse12 = append(sparse12, in, 0, 0)
	}
	f.Add(uint16(11), bytes.Repeat(sparse12, 5))
	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		k := 1 + int(shape%12)
		h := 1 + int(shape/12%3)
		eps := []float64{0.25, 0.1, 0.05}[shape/36%3]
		w := Tick(64) << (shape / 108 % 8)
		cfg := Config{Length: w, Epsilon: eps}
		x, _ := NewExact(cfg)
		type arrival struct {
			in int
			t  Tick
			n  uint64
		}
		var stream []arrival
		var mass uint64
		now := Tick(1)
		// Three bytes an event: the input, the tick step, the multiplicity.
		for ; len(data) >= 3; data = data[3:] {
			step, cnt := data[1], data[2]
			switch step >> 5 {
			case 3, 4: // sparse
				now += Tick(step & 7)
			case 5: // gaps inside the window
				now += Tick(step&31) * w / 32
			case 6, 7: // past the window
				now += w + Tick(step&63)
			} // else a dense run at one tick
			n := uint64(1 + cnt&15)
			if cnt&0x80 != 0 {
				n = uint64(cnt) // a burst
			}
			stream = append(stream, arrival{int(data[0]) % k, now, n})
			x.AddN(now, n)
			mass += n
		}
		x.Advance(now)

		bound := MultiLevelRelativeError(eps, h)
		check := func(algo string, root interface{ EstimateSince(int, Tick) float64 }, since Tick) {
			got, want := root.EstimateSince(0, since), float64(x.CountSince(since))
			if math.Abs(got-want) > bound*want+1 {
				t.Fatalf("%s k=%d h=%d ε=%v W=%d: EstimateSince(%d) = %v, exact %v, bound %v",
					algo, k, h, eps, w, since, got, want, bound*want)
			}
		}
		edge := func(algo string, root interface{ EstimateSince(int, Tick) float64 }, e Tick) {
			check(algo, root, e-min(e, 1))
			check(algo, root, e)
		}

		eh := make([]*EHBank, k)
		for j := range eh {
			eh[j], _ = NewEHBank(cfg, 1)
		}
		for _, a := range stream {
			eh[a.in].AddN(0, a.t, a.n)
		}
		// Every merge, at every edge of every input bucket: the merged cell
		// is an EH over the half-split replay, which holds, after any
		// boundary the inputs' buckets straddle, exactly what the inputs
		// estimate there (a straddled bucket spans two ticks, so it has
		// size 2^ℓ ≥ 2 and its end half is the half its estimate counts).
		// An EH answers a stream exactly where none of its buckets
		// straddles the boundary, and otherwise misses by at most half the
		// straddler less one arrival, since the straddler holds an arrival
		// on each side. That is the replay's own error, far tighter than
		// ε·exact, and it is what catches a replay that moves arrivals to
		// the wrong side of an edge.
		replayExact := func(inputs []*EHBank, m *EHBank) {
			floor := Tick(0) // the merged window's start: inputs' clocks trail it
			if n := m.Now(0); n >= w {
				floor = n - w
			}
			at := func(since Tick) {
				since = max(since, floor)
				var want float64
				for _, in := range inputs {
					want += in.EstimateSince(0, since)
				}
				slack := 0.0
				for _, bk := range m.Buckets(0) {
					if bk.Start <= since && since < bk.End {
						slack = float64(bk.Size)/2 - 1
					}
				}
				if got := m.EstimateSince(0, since); math.Abs(got-want) > slack {
					t.Fatalf("EH k=%d h=%d ε=%v W=%d: a %d-way merge reads EstimateSince(%d) = %v, its inputs %v, slack %v",
						k, h, eps, w, len(inputs), since, got, want, slack)
				}
			}
			for _, in := range inputs {
				for _, bk := range in.Buckets(0) {
					at(bk.Start - min(bk.Start, 1))
					at(bk.Start)
					at(bk.End - min(bk.End, 1))
					at(bk.End)
				}
			}
		}
		ehRoot := mergeTree(eh, h, func() *EHBank { b, _ := NewEHBank(cfg, 1); return b }, replayExact)
		ehRoot.Advance(0, now)
		for _, in := range eh {
			for _, bk := range in.Buckets(0) {
				edge("EH", ehRoot, bk.Start)
				edge("EH", ehRoot, bk.End)
			}
		}

		dcfg := cfg
		dcfg.UpperBound = max(mass, 1)
		dw := make([]*DWBank, k)
		for j := range dw {
			dw[j], _ = NewDWBank(dcfg, 1)
		}
		for _, a := range stream {
			dw[a.in].AddN(0, a.t, a.n)
		}
		dwRoot := mergeTree(dw, h, func() *DWBank { b, _ := NewDWBank(dcfg, 1); return b }, nil)
		dwRoot.Advance(0, now)
		for _, in := range dw {
			for _, e := range in.appendEntries(nil, 0) {
				edge("DW", dwRoot, e.t)
			}
		}
	})
}

// mergeTree merges the leaves' cell 0 into one root cell through
// MergeCellFrom in d levels, each level with the smallest fan-in that
// reaches one root in the levels left, each merge at its inputs' high-water
// clock. onMerge, when not nil, sees every merge's inputs and result.
func mergeTree[B interface {
	Now(i int) Tick
	MergeCellFrom(i, src int, now Tick, inputs []B)
}](leaves []B, d int, fresh func() B, onMerge func(inputs []B, merged B)) B {
	level := leaves
	for ; d > 0; d-- {
		fan := 1
		for math.Pow(float64(fan), float64(d)) < float64(len(level)) {
			fan++
		}
		var next []B
		for lo := 0; lo < len(level); lo += fan {
			group := level[lo:min(lo+fan, len(level))]
			var gnow Tick
			for _, in := range group {
				gnow = max(gnow, in.Now(0))
			}
			m := fresh()
			m.MergeCellFrom(0, 0, gnow, group)
			if onMerge != nil {
				onMerge(group, m)
			}
			next = append(next, m)
		}
		level = next
	}
	return level[0]
}
