package core_test

import (
	"fmt"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/difftest"
)

// TestAddBatchSequentialEquivalence pins the batch ingest pipeline to the
// sequential path byte for byte: for every algorithm, a write-rule log fed
// through AddBatch and through per-event AddN leaves sketches with equal
// encodings, versions and answers at every check. The log crosses every
// branch of the pipeline — every other batch is five rows wide, above the
// grouping threshold of four (key-grouped sweeps and the persistent key
// cache), the rest narrower (plain sweeps), mixed multiplicities, repeated
// keys, and a window short enough that cascades and expiry run throughout —
// and every clause of the write rule: ticks behind the clock, tick 0 and
// N == 0 land identically through both doors.
func TestAddBatchSequentialEquivalence(t *testing.T) {
	for _, algo := range []ecmsketch.Algorithm{ecmsketch.AlgoEH, ecmsketch.AlgoDW, ecmsketch.AlgoRW} {
		t.Run(fmt.Sprint(algo), func(t *testing.T) {
			p := ecmsketch.Params{Epsilon: 0.2, Delta: 0.2, WindowLength: 500, Seed: 13,
				Algorithm: algo, UpperBound: 1 << 16}
			ref, err := ecmsketch.New(p)
			if err != nil {
				t.Fatal(err)
			}
			w := ref.Width()
			l := difftest.Gen(99, difftest.Shape{Window: 500, Events: 4000, Ticks: 1500, Keys: 64,
				Batch: 64, Deep: 5 * w, Checks: 20, Rules: true})
			deep := 0
			for _, op := range l.Ops {
				if op.Kind == difftest.OpBatch && len(op.Events) >= 4*w {
					deep++
				}
			}
			if deep < 10 {
				t.Fatalf("%d batches of at least 4·w = %d arrivals, want ≥10", deep, 4*w)
			}
			h := difftest.New(t, p)
			h.Same(h.Sketch(0, difftest.Singles), h.Sketch(0, difftest.Batches))
			h.Run(l)
		})
	}
}
