package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ecmsketch/internal/window"
)

// TestAddBatchSequentialEquivalence pins the batch ingest pipeline to the
// sequential path byte-for-byte: for every algorithm, applying a random
// stream through AddBatch must leave a sketch whose encoding is identical to
// one fed the same events through per-event AddN. The stream is shaped to
// cross every branch of the pipeline — batches below and above the grouping
// threshold (plain vs key-grouped sweeps), all-unit and mixed-multiplicity
// batches (nil vs populated ns), repeated keys (the persistent key cache),
// and a window short enough that cascades and expiry run throughout.
func TestAddBatchSequentialEquivalence(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		t.Run(fmt.Sprint(algo), func(t *testing.T) {
			p := Params{Epsilon: 0.2, Delta: 0.2, WindowLength: 500, Seed: 13, Algorithm: algo}
			if algo == window.AlgoDW || algo == window.AlgoRW {
				p.UpperBound = 1 << 16
			}
			batched, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			// Default identifier salts are per-instance (sketch-level for
			// auto-ids, per-cell for bank-generated ones, and the cell salts
			// are wire-encoded); pin both so the RW engines draw identical
			// event identifiers and the encodings can be byte-compared at all.
			batched.SetIDSalt(77)
			seq.SetIDSalt(77)
			if algo == window.AlgoRW {
				for i := 0; i < batched.d*batched.w; i++ {
					batched.rw.SetCellIDSalt(i, uint64(i)*0x9e3779b97f4a7c15+1)
					seq.rw.SetCellIDSalt(i, uint64(i)*0x9e3779b97f4a7c15+1)
				}
			}
			w := batched.fam.Width()
			rng := rand.New(rand.NewSource(99))
			tick := Tick(1)
			for round := 0; round < 40; round++ {
				// Alternate small batches (plain sweep) and batches several
				// times wider than the row (grouped sweep), and all-unit
				// rounds with mixed-multiplicity ones.
				m := 1 + rng.Intn(8)
				if round%2 == 1 {
					m = groupFactor*w + rng.Intn(3*w)
				}
				evs := make([]Event, m)
				for i := range evs {
					if rng.Intn(4) == 0 {
						tick += Tick(rng.Intn(60))
					}
					n := uint64(1)
					if round%4 == 2 {
						n = uint64(1 + rng.Intn(3))
					}
					evs[i] = Event{Key: rng.Uint64() % 64, Tick: tick, N: n}
				}
				batched.AddBatch(evs)
				for _, ev := range evs {
					seq.AddN(ev.Key, ev.Tick, ev.N)
				}
				if got, want := batched.Marshal(), seq.Marshal(); !bytes.Equal(got, want) {
					t.Fatalf("round %d (batch of %d): batched encoding diverged from sequential", round, m)
				}
			}
		})
	}
}

// TestAddBatchSteadyStateAllocs pins the ingest path's allocation-free steady
// state: once the arena has grown to what a full window needs, a batch
// allocates nothing — on either side of the grouping threshold, for both
// engines that take batches row-major. An interface box or an escaped scratch
// on the hot path shows up here first.
func TestAddBatchSteadyStateAllocs(t *testing.T) {
	const windowLen, perTick = 1 << 12, 8
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW} {
		for _, m := range []int{256, 4096} {
			t.Run(fmt.Sprintf("%v/%d", algo, m), func(t *testing.T) {
				s, err := New(Params{Epsilon: 0.02, Delta: 0.05, WindowLength: windowLen,
					UpperBound: windowLen * perTick, Seed: 1, Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				if deep := m >= groupFactor*s.w; deep != (m == 4096) {
					t.Fatalf("batch of %d on width %d: deep = %v; the two sizes must straddle the grouping threshold", m, s.w, deep)
				}
				zipf := rand.NewZipf(rand.New(rand.NewSource(3)), 1.1, 1, 1<<16)
				batch := make([]Event, m)
				var n int
				next := func() {
					for i := range batch {
						n++
						batch[i] = Event{Key: zipf.Uint64(), Tick: Tick(1 + n/perTick)}
					}
					s.AddBatch(batch)
				}
				for n < 3*windowLen*perTick { // warm past three windows
					next()
				}
				if allocs := testing.AllocsPerRun(64, next); allocs != 0 {
					t.Fatalf("steady-state AddBatch allocates %v times per batch, want 0", allocs)
				}
			})
		}
	}
}
