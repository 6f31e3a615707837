package core

import (
	"bytes"
	"testing"

	"ecmsketch/internal/window"
)

// patchFeed tracks, per input, the bank version at the last patch and
// collects the union of changed cells across inputs — the same feed a
// coordinator assembles from its sites' delta applications.
type patchFeed struct {
	baseVers []uint64
	cells    map[int]struct{}
}

func newPatchFeed(inputs []*Sketch) *patchFeed {
	f := &patchFeed{baseVers: make([]uint64, len(inputs)), cells: map[int]struct{}{}}
	for i, in := range inputs {
		f.baseVers[i] = in.DeltaVersion()
	}
	return f
}

func (f *patchFeed) note(idx int) { f.cells[idx] = struct{}{} }

// take collects arrival-changed cells since the last take (expiry-noted
// cells arrive via note) and resets the baselines.
func (f *patchFeed) take(inputs []*Sketch) []int {
	n := inputs[0].d * inputs[0].w
	for k, in := range inputs {
		for i := 0; i < n; i++ {
			if in.bank.CellChangedSince(i, f.baseVers[k]) {
				f.cells[i] = struct{}{}
			}
		}
		f.baseVers[k] = in.DeltaVersion()
	}
	out := make([]int, 0, len(f.cells))
	for idx := range f.cells {
		out = append(out, idx)
	}
	f.cells = map[int]struct{}{}
	return out
}

// TestPatchMergedMatchesMerge pins the incremental re-merge equivalence for
// all three algorithms: a merged sketch patched every interval from the
// changed-cell feed stays byte-identical (Marshal) to a from-scratch Merge
// over the same inputs, across dense, sparse, skewed and idle intervals.
func TestPatchMergedMatchesMerge(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			const nInputs = 4
			inputs := make([]*Sketch, nInputs)
			for i := range inputs {
				s, err := New(sparseParams(algo))
				if err != nil {
					t.Fatal(err)
				}
				inputs[i] = s
			}
			merged, err := Merge(inputs...)
			if err != nil {
				t.Fatal(err)
			}
			feed := newPatchFeed(inputs)

			tick := Tick(0)
			for round := 0; round < 30; round++ {
				switch round % 4 {
				case 0: // dense: every input busy
					for k, in := range inputs {
						for j := 0; j < 40; j++ {
							tick++
							in.AddN(uint64(k*977+j*131), tick, uint64(j%5+1))
						}
					}
				case 1: // sparse: one input, few keys
					in := inputs[round%nInputs]
					for j := 0; j < 3; j++ {
						tick += 7
						in.AddN(uint64(round*31+j), tick, 2)
					}
				case 2: // skewed: two inputs hammer the same keys
					for _, in := range inputs[:2] {
						tick++
						in.AddN(42, tick, 9)
						in.AddN(43, tick, 1)
					}
				case 3: // idle: clocks move, windows expire
					tick += 700
				}
				// Settle everyone to a common interval clock, feeding expiry
				// notes into the union like a coordinator's apply step does.
				for _, in := range inputs {
					in.AdvanceNoting(tick, feed.note)
				}
				if err := PatchMerged(merged, inputs, feed.take(inputs), false, nil); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				fresh, err := Merge(inputs...)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !bytes.Equal(merged.Marshal(), fresh.Marshal()) {
					t.Fatalf("round %d: patched merge diverged from from-scratch merge", round)
				}
			}

			// Membership change: rebuild in place with all=true over a
			// different input set; byte-identical to a fresh flat merge.
			if err := PatchMerged(merged, inputs[1:], nil, true, nil); err != nil {
				t.Fatal(err)
			}
			fresh, err := Merge(inputs[1:]...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged.Marshal(), fresh.Marshal()) {
				t.Fatal("all=true rebuild diverged from from-scratch merge")
			}
		})
	}
}

// TestPatchMergedValidation pins that bad calls fail before mutating dst.
func TestPatchMergedValidation(t *testing.T) {
	a, err := New(sparseParams(window.AlgoEH))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sparseParams(window.AlgoEH))
	if err != nil {
		t.Fatal(err)
	}
	a.AddN(1, 5, 3)
	b.AddN(2, 6, 4)
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	before := merged.Marshal()

	if err := PatchMerged(nil, []*Sketch{a}, nil, true, nil); err == nil {
		t.Error("nil destination accepted")
	}
	if err := PatchMerged(merged, nil, nil, true, nil); err == nil {
		t.Error("no inputs accepted")
	}
	if err := PatchMerged(merged, []*Sketch{a, nil}, nil, true, nil); err == nil {
		t.Error("nil input accepted")
	}
	other, err := New(Params{Epsilon: 0.05, Delta: 0.1, WindowLength: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := PatchMerged(merged, []*Sketch{a, other}, nil, true, nil); err == nil {
		t.Error("incompatible input accepted")
	}
	if err := PatchMerged(merged, []*Sketch{other}, nil, true, nil); err == nil {
		t.Error("incompatible single input accepted")
	}
	if err := PatchMerged(merged, []*Sketch{a}, []int{-1}, false, nil); err == nil {
		t.Error("out-of-range cell index accepted for a single input")
	}
	if err := PatchMerged(merged, []*Sketch{a, b}, []int{merged.d * merged.w}, false, nil); err == nil {
		t.Error("out-of-range cell index accepted")
	}
	if !bytes.Equal(merged.Marshal(), before) {
		t.Error("failed PatchMerged mutated the destination")
	}
}

// TestMergeOfOneIsIdentity pins the one-input rule: Merge(x) is x settled
// (same bytes, salt, count and sequence, fresh epoch), and PatchMerged over
// [x] keeps equalling Merge(x) as x ingests past several windows.
func TestMergeOfOneIsIdentity(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			x, err := New(sparseParams(algo))
			if err != nil {
				t.Fatal(err)
			}
			settled := func() []byte {
				c, err := x.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				c.Advance(c.Now())
				return c.Marshal()
			}
			tick := Tick(0)
			for j := 0; j < 300; j++ {
				tick += Tick(j % 3)
				x.AddN(uint64(j*131%97), tick+1, uint64(j%4+1))
			}
			merged, err := Merge(x)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged.Marshal(), settled()) {
				t.Fatal("Merge(x) differs from x settled")
			}
			if merged.salt != x.salt || merged.count != x.count || merged.seq != x.seq || merged.now != x.now {
				t.Fatalf("Merge(x) scalars (salt %x count %d seq %d now %d) differ from x's (%x %d %d %d)",
					merged.salt, merged.count, merged.seq, merged.now, x.salt, x.count, x.seq, x.now)
			}
			if merged.Epoch() == x.Epoch() {
				t.Error("Merge(x) kept x's epoch")
			}

			inputs := []*Sketch{x}
			feed := newPatchFeed(inputs)
			for round := 0; round < 12; round++ {
				for j := 0; j < 20*(round%3); j++ {
					tick++
					x.AddN(uint64(round*53+j%7), tick, 2)
				}
				tick += 300 // twelve rounds cross the 1000-tick window several times
				x.AdvanceNoting(tick, feed.note)
				if err := PatchMerged(merged, inputs, feed.take(inputs), round%5 == 4, nil); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				fresh, err := Merge(x)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(merged.Marshal(), fresh.Marshal()) {
					t.Fatalf("round %d: PatchMerged over [x] differs from Merge(x)", round)
				}
				if merged.salt != x.salt || merged.count != x.count || merged.seq != x.seq {
					t.Fatalf("round %d: patched scalars differ from x's", round)
				}
			}
		})
	}
}
