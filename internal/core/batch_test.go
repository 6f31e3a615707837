package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ecmsketch/internal/window"
)

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
