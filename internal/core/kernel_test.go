package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"ecmsketch/internal/hashing"
	"ecmsketch/internal/workload"
)

// mergeBenchInputs builds the bench/ operating point's merge inputs: stripes
// EH sketches (ε = 0.02, δ = 0.01 — 274 × 5 cells unless width overrides the
// row length) sharing one Zipf(1.0) stream of 8 events per tick over ticks
// ticks, each key routed to one stripe as the Sharded engine does.
func mergeBenchInputs(tb testing.TB, stripes, width int, window, ticks Tick) []*Sketch {
	tb.Helper()
	p := Params{Epsilon: 0.02, Delta: 0.01, WindowLength: window, Seed: 1}
	if width > 0 {
		ref, err := New(p)
		if err != nil {
			tb.Fatal(err)
		}
		p.Width, p.Depth = width, ref.Depth()
	}
	inputs := make([]*Sketch, stripes)
	for i := range inputs {
		s, err := New(p)
		if err != nil {
			tb.Fatal(err)
		}
		inputs[i] = s
	}
	z, err := workload.NewZipf(rand.New(rand.NewSource(1)), 1.0, 1<<16)
	if err != nil {
		tb.Fatal(err)
	}
	for t := Tick(1); t <= ticks; t++ {
		for e := 0; e < 8; e++ {
			key := hashing.KeyUint64(z.Sample())
			inputs[hashing.Mix64(key)%uint64(stripes)].Add(key, t)
		}
	}
	for _, in := range inputs {
		in.Advance(ticks)
	}
	return inputs
}

var mergeBenchSink *Sketch

// BenchmarkMergeCells times the Theorem-4 cell replay where the system runs
// it: a whole-array Merge (Sharded view rebuild, dense coordinator round) and
// a 64-cell PatchMerged (sparse coordinator round), over 4 stripes at the
// bench/ operating point with the window 1.125× full.
func BenchmarkMergeCells(b *testing.B) {
	const window = 1 << 17
	inputs := mergeBenchInputs(b, 4, 0, window, window+window/8)
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := Merge(inputs...)
			if err != nil {
				b.Fatal(err)
			}
			mergeBenchSink = m
		}
	})
	b.Run("patch64", func(b *testing.B) {
		dst, err := Merge(inputs...)
		if err != nil {
			b.Fatal(err)
		}
		n := dst.Width() * dst.Depth()
		cells := make([]int, 64)
		for i := range cells {
			cells[i] = i * n / len(cells)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := PatchMerged(dst, inputs, cells, false, nil); err != nil {
				b.Fatal(err)
			}
		}
		mergeBenchSink = dst
	})
}

// TestMergeAllocsDoNotScale pins Merge's allocation count to the output
// arena plus O(workers): the same at the operating point's 274 × 5 cells and
// at 4× the width. A per-cell make anywhere in the replay shows up as
// thousands of extra allocations on the wide array.
func TestMergeAllocsDoNotScale(t *testing.T) {
	defer SetMergeParallelism(0)
	const window = 1 << 10
	allocs := func(width int) (seq, par float64) {
		inputs := mergeBenchInputs(t, 4, width, window, window+window/8)
		run := func() {
			if _, err := Merge(inputs...); err != nil {
				t.Fatal(err)
			}
		}
		SetMergeParallelism(1)
		seq = testing.AllocsPerRun(5, run)
		SetMergeParallelism(2)
		par = testing.AllocsPerRun(5, run)
		return seq, par
	}
	seq1, par1 := allocs(274)
	seq4, par4 := allocs(4 * 274)
	t.Logf("allocs per Merge: sequential %v → %v, 2 workers %v → %v (274 → 1096 cells per row)", seq1, seq4, par1, par4)
	// Slack covers the arena's doubling steps, which grow with log(width).
	const slack = 24
	if seq4 > seq1+slack || par4 > par1+slack {
		t.Fatalf("allocations scale with the cell count: sequential %v → %v, 2 workers %v → %v", seq1, seq4, par1, par4)
	}
}

// oracleMergeEH is Merge with every cell re-derived by the kernel the run
// merger replaced: lower all inputs' bucket lists into one event slice, sort
// it by tick (stably — the merger's tie-break is input order; see
// window.TestReplayTieOrderIsVisible), replay.
func oracleMergeEH(t *testing.T, inputs ...*Sketch) *Sketch {
	t.Helper()
	out, err := Merge(inputs...) // the scalars: salt, clock, count
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		t Tick
		n uint64
	}
	var events []event
	for idx := 0; idx < out.d*out.w; idx++ {
		events = events[:0]
		for _, in := range inputs {
			for _, b := range in.eh.Buckets(idx) {
				half := b.Size / 2
				if b.Start == b.End {
					half = 0
				}
				events = append(events, event{b.Start, b.Size - half})
				if half > 0 {
					events = append(events, event{b.End, half})
				}
			}
		}
		slices.SortStableFunc(events, func(a, b event) int { return cmp.Compare(a.t, b.t) })
		out.eh.ResetCell(idx)
		for _, ev := range events {
			out.eh.AddN(idx, ev.t, ev.n)
		}
		out.eh.Advance(idx, out.now)
	}
	return out
}

// TestMergeKernelPastWindow runs a two-level tree — 8 EH leaves, 2 merged
// mids, one root — for more than three windows, so the root's inputs are
// themselves merge outputs: wide Start < End buckets, expired prefixes, and
// (one leaf lags) content the replay itself must expire. Every round the root
// must be the same bytes whether built by the run merger or the oracle
// kernel, patched in place or merged afresh, sequentially or in parallel.
func TestMergeKernelPastWindow(t *testing.T) {
	defer SetMergeParallelism(0)
	const window, leavesPerMid = 512, 4
	p := Params{Epsilon: 0.1, Delta: 0.1, Width: 128, Depth: 2, WindowLength: window, Seed: 42}
	leaves := make([]*Sketch, 2*leavesPerMid)
	for i := range leaves {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = s
	}
	group := func(m int) []*Sketch { return leaves[m*leavesPerMid : (m+1)*leavesPerMid] }
	mustMerge := func(inputs ...*Sketch) *Sketch {
		m, err := Merge(inputs...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	SetMergeParallelism(8)
	mids := []*Sketch{mustMerge(group(0)...), mustMerge(group(1)...)}
	root := mustMerge(mids...)
	midFeeds := []*patchFeed{newPatchFeed(group(0)), newPatchFeed(group(1))}
	rootFeed := newPatchFeed(mids)

	rng := rand.New(rand.NewSource(7))
	tick := Tick(0)
	for round := 0; tick <= 3*window+window/2; round++ {
		for step := 0; step < 60; step++ {
			tick += Tick(rng.Intn(3)) // shared ticks within and across leaves
			leaf := leaves[rng.Intn(len(leaves))]
			leaf.AddN(uint64(rng.Intn(40)), tick, uint64(1+rng.Intn(6)))
		}
		if round%5 == 4 {
			tick += window / 3 // an idle stretch: whole levels expire
		}
		for i, leaf := range leaves {
			if i == 3 && round%4 != 0 {
				continue // leaf 3 lags: its clock trails the merged one
			}
			leaf.AdvanceNoting(tick, midFeeds[i/leavesPerMid].note)
		}

		SetMergeParallelism(8)
		for m, mid := range mids {
			if err := PatchMerged(mid, group(m), midFeeds[m].take(group(m)), false, rootFeed.note); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := PatchMerged(root, mids, rootFeed.take(mids), false, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		patched := root.Marshal()

		fresh := mustMerge(mustMerge(group(0)...), mustMerge(group(1)...)).Marshal()
		SetMergeParallelism(1)
		sequential := mustMerge(mustMerge(group(0)...), mustMerge(group(1)...)).Marshal()
		oracle := oracleMergeEH(t, oracleMergeEH(t, group(0)...), oracleMergeEH(t, group(1)...)).Marshal()

		switch {
		case !bytes.Equal(fresh, oracle):
			t.Fatalf("round %d (tick %d): run-merger root differs from the oracle kernel's", round, tick)
		case !bytes.Equal(patched, fresh):
			t.Fatalf("round %d (tick %d): patched root differs from a fresh merge", round, tick)
		case !bytes.Equal(sequential, fresh):
			t.Fatalf("round %d (tick %d): sequential root differs from the parallel one", round, tick)
		}
	}
}
