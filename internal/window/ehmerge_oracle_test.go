package window

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"
)

// The Theorem 4 replay as it was before the run merger, kept as the oracle
// the streaming kernel is checked against: lower every input's bucket list
// into one event slice, sort the concatenation by tick, replay.

// oracleReplayEvents is the former replayEventsFromBuckets with one change:
// the sort is stable. The order of equal-tick events is not always
// invisible — see TestReplayTieOrderIsVisible — so the kernel fixes it
// (earlier input first, then the input's own bucket order), which is exactly
// what a stable sort of the concatenation produces. sort.Slice left it to
// pdqsort's pivoting.
func oracleReplayEvents(inputs [][]Bucket, split splitFunc) []replayEvent {
	total := 0
	for _, in := range inputs {
		total += len(in)
	}
	events := make([]replayEvent, 0, 2*total)
	for _, in := range inputs {
		for _, b := range in {
			s, e := split(b)
			if b.Start == b.End {
				if b.Size > 0 {
					events = append(events, replayEvent{t: b.Start, n: b.Size})
				}
				continue
			}
			if s > 0 {
				events = append(events, replayEvent{t: b.Start, n: s})
			}
			if e > 0 {
				events = append(events, replayEvent{t: b.End, n: e})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].t < events[j].t })
	return events
}

// oracleMergeCell is the former EHBank.MergeCell over bucket lists.
func oracleMergeCell(b *EHBank, i int, now Tick, inputs [][]Bucket) {
	for _, ev := range oracleReplayEvents(inputs, splitHalfHalf) {
		b.AddN(i, ev.t, ev.n)
	}
	b.Advance(i, now)
}

// oracleMergeEH is the former MergeEH body.
func oracleMergeEH(t testing.TB, out Config, inputs []*EH, split splitFunc) *EH {
	lists := make([][]Bucket, len(inputs))
	for k, in := range inputs {
		lists[k] = in.Buckets()
	}
	merged, err := NewEH(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range oracleReplayEvents(lists, split) {
		merged.AddN(ev.t, ev.n)
	}
	merged.Advance(maxNow(inputs))
	return merged
}

func maxNow(inputs []*EH) Tick {
	var now Tick
	for _, in := range inputs {
		now = max(now, in.now)
	}
	return now
}

// cellTickOrdered reports whether cell i's buckets, read oldest → newest,
// have non-decreasing boundary ticks — true of every cell built by arrivals
// or merges, and of every cell UnmarshalCell accepts. EstimateSince and the
// run merger rely on it without checking.
func (b *EHBank) cellTickOrdered(i int) bool {
	var prev Tick
	for lv := int(b.cells[i].nLv) - 1; lv >= 0; lv-- {
		d := b.level(i, lv)
		for j := 0; j < int(d.n); j++ {
			bk := b.at(d, j)
			if bk.start < prev || bk.end < bk.start {
				return false
			}
			prev = bk.end
		}
	}
	return true
}

// splitFunc distributes a bucket's size across its two boundary ticks.
type splitFunc func(b Bucket) (atStart, atEnd uint64)

func splitHalfHalf(b Bucket) (uint64, uint64) {
	half := b.Size / 2
	return b.Size - half, half
}

// lowerBuckets lowers one per-object histogram's bucket list (oldest →
// newest) into its replay run.
func lowerBuckets(bs []Bucket, split splitFunc) []replayEvent {
	dst := make([]replayEvent, 0, 2*len(bs))
	for _, b := range bs {
		s, e := split(b)
		if b.Start == b.End {
			if b.Size > 0 {
				dst = append(dst, replayEvent{t: b.Start, n: b.Size})
			}
			continue
		}
		if s > 0 {
			dst = append(dst, replayEvent{t: b.Start, n: s})
		}
		if e > 0 {
			dst = append(dst, replayEvent{t: b.End, n: e})
		}
	}
	return dst
}

// requireBanksOrdered fails unless every cell of every bank is tick-ordered.
func requireBanksOrdered(t testing.TB, banks ...*EHBank) {
	t.Helper()
	for _, b := range banks {
		for i := range b.cells {
			if !b.cellTickOrdered(i) {
				t.Fatalf("cell %d is not tick-ordered: %v", i, b.Buckets(i))
			}
		}
	}
}

// requireCellsIdentical compares everything observable about two bank cells:
// the wire bytes, the cell header including the expiry cache, and (on the
// banks) the version vector.
func requireCellsIdentical(t *testing.T, got *EHBank, gi int, want *EHBank, wi int) {
	t.Helper()
	ge := got.AppendMarshalCellBare(nil, gi)
	we := want.AppendMarshalCellBare(nil, wi)
	if !bytes.Equal(ge, we) {
		t.Fatalf("cell encodings differ:\n got  %x\n want %x", ge, we)
	}
	if g, w := got.cells[gi], want.cells[wi]; g != w {
		t.Fatalf("cell headers differ: got %+v, want %+v", g, w)
	}
}

func requireVersionsIdentical(t *testing.T, got, want *EHBank) {
	t.Helper()
	gv, gvs := got.VersionVector()
	wv, wvs := want.VersionVector()
	if gv != wv || !slices.Equal(gvs, wvs) {
		t.Fatalf("version vectors differ: got %d %v, want %d %v", gv, gvs, wv, wvs)
	}
}

// TestReplayTieOrderIsVisible records why the kernel fixes the order of
// equal-tick events instead of leaving it open: AddN expires after its
// inserts, so when a tick's first event finds expiry pending, how many units
// it inserts decides whether the cascade reaches the bucket about to expire
// and carries it into a survivor. Two events at one tick, replayed in either
// order, then leave different cells.
func TestReplayTieOrderIsVisible(t *testing.T) {
	cfg := Config{Length: 10, Epsilon: 0.5} // capPerLv 3
	replay := func(evs ...replayEvent) *EHBank {
		b, err := NewEHBank(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			b.AddN(0, ev.t, ev.n)
		}
		return b
	}
	old := []replayEvent{{1, 1}, {2, 1}} // tick 1 expires at tick 11
	small, large := replayEvent{11, 1}, replayEvent{11, 4}
	a := replay(append(slices.Clone(old), small, large)...)
	b := replay(append(slices.Clone(old), large, small)...)
	if a.Total(0) == b.Total(0) {
		t.Fatalf("tie order made no difference (totals %d): the merger's tie-break is no longer load-bearing", a.Total(0))
	}
}

// TestMergeCellTieBreakIsInputOrder pins the kernel's choice on the visible
// case above: equal ticks replay earlier input first.
func TestMergeCellTieBreakIsInputOrder(t *testing.T) {
	cfg := Config{Length: 10, Epsilon: 0.5}
	input := func(bs ...Bucket) *EHBank {
		in, err := NewEHBank(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, bk := range bs {
			in.RestoreBucket(0, bk)
		}
		in.NormalizeRestored(0)
		return in
	}
	x := input(Bucket{1, 1, 1}, Bucket{2, 2, 1}, Bucket{11, 11, 1})
	y := input(Bucket{11, 11, 4})
	var totals []uint64
	for _, ins := range [][]*EHBank{{x, y}, {y, x}} {
		got, _ := NewEHBank(cfg, 1)
		want, _ := NewEHBank(cfg, 1)
		got.MergeCellFrom(0, 0, 11, ins)
		oracleMergeCell(want, 0, 11, [][]Bucket{ins[0].Buckets(0), ins[1].Buckets(0)})
		requireCellsIdentical(t, got, 0, want, 0)
		totals = append(totals, got.Total(0))
	}
	if totals[0] == totals[1] {
		t.Fatalf("both input orders merged to total %d: not the tie-visible case", totals[0])
	}
}

// fuzzBucketLists decodes fuzz bytes into k bucket lists. Three bytes make a
// bucket: a start step, a length and a size selector. Most buckets continue
// their list in tick order with power-of-two sizes in level order, as real
// cells do; the selector's high bits break each of those rules in turn —
// zero and non-power-of-two sizes, sizes out of level order, a start that
// jumps back before the previous bucket, an end before its start.
func fuzzBucketLists(data []byte) [][]Bucket {
	if len(data) == 0 {
		return nil
	}
	lists := make([][]Bucket, 1+int(data[0])%9)
	data = data[1:]
	prev := make([]Tick, len(lists))
	for n := 0; len(data) >= 3; n, data = n+1, data[3:] {
		k := n % len(lists)
		step, length, sel := Tick(data[0]%7), Tick(data[1]%5), data[2]
		size := uint64(1) << (sel & 3)
		start := prev[k] + step
		end := start + length
		switch sel >> 4 {
		case 1:
			size = 0
		case 2:
			size = 3 + uint64(sel&3)
		case 3:
			size = uint64(1) << (5 - sel&3) // a large class late in the list
		case 4:
			start = prev[k] - min(prev[k], 1+step) // back in time
			end = start + length
		case 5:
			end = start - min(start, 1+length) // inside-out
		}
		lists[k] = append(lists[k], Bucket{Start: start, End: end, Size: size})
		prev[k] = max(start, end)
	}
	return lists
}

// FuzzMergeCellRuns checks the streaming run merger against the
// lower-sort-replay oracle on k ∈ 1..9 arbitrary bucket lists. Each list
// reaches its input bank the only way a bank cell can be filled from outside,
// encoded and decoded through UnmarshalCell: the decoder must reject exactly
// the lists that break bucket order, and the accepted ones must merge to
// identical cell bytes, cell header and version vector, with every cell
// tick-ordered. The same merge also lands in destination cells that held
// content and were ResetCell'd, as a live root's are when PatchMerged
// re-derives them. The per-object MergeEH rides the same merger from lowered
// event slices of every list, ordered or not, and is held to its own oracle.
// sizeFreeSpellable reports whether the size-free EH form can spell bs:
// sizes are powers of two that never grow, and every size-1 bucket covers
// one tick.
func sizeFreeSpellable(bs []Bucket) bool {
	prev := ^uint64(0)
	for _, b := range bs {
		if bits.OnesCount64(b.Size) != 1 || b.Size > prev || (b.Size == 1 && b.End != b.Start) {
			return false
		}
		prev = b.Size
	}
	return true
}

func FuzzMergeCellRuns(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 1, 0, 0, 2, 1, 1, 0, 3, 2, 6, 4, 0x13})
	f.Add([]byte{0, 1, 1, 0x30, 1, 1, 0x31, 1, 1, 0x32, 1, 1, 0x33})       // sizes out of level order
	f.Add([]byte{1, 5, 2, 0x40, 5, 2, 0x01, 6, 4, 0x42, 6, 0, 0x50})       // back in time, inside-out
	f.Add([]byte{8, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 0x10, 0, 0, 0x22})    // every event at one tick
	f.Add(bytes.Repeat([]byte{6, 3, 1, 2, 0, 0, 6, 4, 3, 1, 1, 0x02}, 40)) // deep enough to expire mid-replay
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := fuzzBucketLists(data)
		if len(lists) == 0 {
			return
		}
		cfg := Config{Length: 48, Epsilon: 0.25}
		const src, cells = 1, 5
		var ins []*EHBank
		var held [][]Bucket // what each input bank actually holds
		ehs := make([]*EH, len(lists))
		var now Tick
		for k, bs := range lists {
			h, err := NewEH(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range bs {
				h.restoreBucket(bucketRestore{start: bk.Start, end: bk.End, size: bk.Size})
			}
			h.normalizeRestored()
			ehs[k] = h

			in, err := NewEHBank(cfg, cells)
			if err != nil {
				t.Fatal(err)
			}
			// Odd lists whose sizes and class-0 spans the size-free form can
			// spell go through it; the rest through the sized form.
			enc := appendEHSized([]byte{wireEHSizedBare, 0}, bs)
			if k%2 == 1 && sizeFreeSpellable(bs) {
				enc = appendEHClasses([]byte{wireEHBare, 0}, bs)
			}
			err = in.UnmarshalCell(src, enc)
			if ordered := ehListOrdered(bs); (err == nil) != ordered {
				t.Fatalf("list %d (ordered %v): decode error %v: %v", k, ordered, err, bs)
			}
			if err != nil {
				continue
			}
			ins, held = append(ins, in), append(held, in.Buckets(src))
			now = max(now, in.Now(src))
		}
		requireBanksOrdered(t, ins...)
		now += Tick(len(data) % 5)

		got, _ := NewEHBank(cfg, cells)
		want, _ := NewEHBank(cfg, cells)
		got.MergeCellFrom(0, src, now, ins)
		oracleMergeCell(want, 0, now, held)
		requireCellsIdentical(t, got, 0, want, 0)
		// A second cell through the same (reused) merger, inputs reversed.
		slices.Reverse(ins)
		slices.Reverse(held)
		got.MergeCellFrom(2, src, now, ins)
		oracleMergeCell(want, 2, now, held)
		requireCellsIdentical(t, got, 2, want, 2)
		// The live-root PatchMerged case: cells that held content and were
		// ResetCell'd keep their size classes, more of them (cell 3) or
		// fewer (cell 4) than the replay needs.
		for _, b := range []*EHBank{got, want} {
			b.RestoreBucket(3, Bucket{Start: 1, End: 2, Size: 1 << 20})
			b.NormalizeRestored(3)
			b.AddN(4, 1, 1)
			b.ResetCell(3)
			b.ResetCell(4)
		}
		for i := 3; i < cells; i++ {
			got.MergeCellFrom(i, src, now, ins)
			oracleMergeCell(want, i, now, held)
			requireCellsIdentical(t, got, i, want, i)
		}
		requireVersionsIdentical(t, got, want)
		requireBanksOrdered(t, got, want)
		if len(got.merger.runs) != 0 || slices.ContainsFunc(got.merger.runs[:cap(got.merger.runs)], func(r replayRun) bool { return r.bank != nil || r.events != nil }) {
			t.Fatal("merger still references its inputs after the merge")
		}

		slices.Reverse(ehs)
		for _, split := range []splitFunc{splitHalfHalf, splitEndpoint} {
			m, err := replayIntoEH(cfg, ehs, split)
			if err != nil {
				t.Fatal(err)
			}
			if o := oracleMergeEH(t, cfg, ehs, split); !bytes.Equal(m.Marshal(), o.Marshal()) {
				t.Fatalf("MergeEH differs from its oracle:\n got  %x\n want %x", m.Marshal(), o.Marshal())
			}
		}
	})
}

// The per-object aggregation entry points: the Theorem 4 replay over
// per-object histograms, riding production's run merger from lowered event
// slices. The banks' MergeCellFrom is compared against them.

// MergeEH performs the order-preserving aggregation EH⊕ = EH1 ⊕ ... ⊕ EHn of
// Section 5.1 (Theorem 4). Each input bucket of size s is replayed into the
// output histogram as ⌈s/2⌉ arrivals at the bucket's start tick and the
// remaining arrivals at its end tick, in global tick order. If the inputs
// were built with error ε and the output is configured with error ε′, the
// merged histogram answers any suffix query with relative error at most
// ε + ε′ + εε′.
//
// Only time-based histograms can be aggregated: count-based ones do not
// retain the order of the zero bits of the combined stream (Figure 2 of the
// paper), so MergeEH rejects them.
func MergeEH(out Config, inputs ...*EH) (*EH, error) {
	if len(inputs) == 0 {
		return nil, errors.New("window: MergeEH requires at least one input")
	}
	if out.Model != TimeBased {
		return nil, errors.New("window: order-preserving aggregation requires time-based windows")
	}
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("window: MergeEH input %d is nil", i)
		}
		if in.cfg.Model != TimeBased {
			return nil, fmt.Errorf("window: MergeEH input %d is %v; count-based exponential histograms cannot be aggregated", i, in.cfg.Model)
		}
	}
	return replayIntoEH(out, inputs, splitHalfHalf)
}

// MergeEHEndpointOnly is the ablation variant of MergeEH that replays each
// bucket's full size at its end tick instead of splitting it half/half across
// the bucket boundaries. It has no bounded-error guarantee — Theorem 4's
// proof relies on the half/half split — and exists to quantify what the
// split buys (see BenchmarkAblationMergeReplay).
func MergeEHEndpointOnly(out Config, inputs ...*EH) (*EH, error) {
	if len(inputs) == 0 {
		return nil, errors.New("window: MergeEHEndpointOnly requires at least one input")
	}
	if out.Model != TimeBased {
		return nil, errors.New("window: order-preserving aggregation requires time-based windows")
	}
	return replayIntoEH(out, inputs, splitEndpoint)
}

func splitEndpoint(b Bucket) (uint64, uint64) { return 0, b.Size }

func replayIntoEH(out Config, inputs []*EH, split splitFunc) (*EH, error) {
	merged, err := NewEH(out)
	if err != nil {
		return nil, err
	}
	var m runMerger
	m.begin(len(inputs))
	var now Tick
	for _, in := range inputs {
		m.addEvents(lowerBuckets(in.Buckets(), split))
		now = max(now, in.now)
	}
	for t, n, ok := m.next(); ok; t, n, ok = m.next() {
		merged.AddN(t, n)
	}
	merged.Advance(now)
	return merged, nil
}

// RestoreBucket appends a bucket into cell i's size class directly,
// bypassing the cascade, as UnmarshalCell files decoded ones; callers feed
// buckets oldest to newest and finish with NormalizeRestored. It lets a test
// build a cell no encoding can spell. An overfull class is repaired by
// cascading before the insert.
func (b *EHBank) RestoreBucket(i int, bk Bucket) {
	c := &b.cells[i]
	lv := 0
	for s := bk.Size; s > 1; s >>= 1 {
		lv++
	}
	for int(c.nLv) <= lv {
		b.addLevel(i)
	}
	b.ensureRoom(i, c, lv)
	b.pushBack(b.level(i, lv), bucket{start: bk.Start, end: bk.End})
	c.total += uint64(1) << uint(lv)
	if bk.End > c.now {
		c.now = bk.End
	}
	b.noteCellMutation(i)
}
