package ecmsketch

import (
	"bytes"
	"testing"
)

// TestShardedDeltaReconstructsSnapshot: a receiver that baselines once and
// then only applies stripe deltas materializes state byte-identical to the
// engine's own full Snapshot at every cursor, with unchanged stripes
// shipping zero bytes. The sparse input stays inside one window and checks
// delta sizes; the dense one runs a small window seven times over, so
// stripes whose clock already equals the engine clock still hold cells with
// expired content when the merged view is built; the one-stripe row runs it
// on the engine whose view needs no merge at all.
func TestShardedDeltaReconstructsSnapshot(t *testing.T) {
	inputs := []struct {
		name                   string
		window                 Tick
		shards, rounds, events int // events per round, one tick each
		algos                  []Algorithm
		sparse                 bool // every fourth round only moves the clock; delta sizes are checked
	}{
		{"sparse", 10000, 8, 12, 3, []Algorithm{AlgoEH, AlgoDW}, true},
		{"past-the-window", 512, 4, 60, 64, []Algorithm{AlgoEH, AlgoDW, AlgoRW}, false},
		// One stripe, as ecmserve runs on a one-core host: the view is the
		// settled stripe itself, not a one-input merge of it.
		{"one-stripe", 512, 1, 30, 64, []Algorithm{AlgoEH, AlgoDW, AlgoRW}, false},
	}
	for _, in := range inputs {
		for _, algo := range in.algos {
			p := Params{Epsilon: 0.1, Delta: 0.1, WindowLength: in.window, Seed: 5, Algorithm: algo}
			if algo == AlgoDW {
				p.UpperBound = 1 << 16
			}
			sh, err := NewSharded(ShardedConfig{Params: p, Shards: in.shards})
			if err != nil {
				t.Fatal(err)
			}
			var st DeltaState
			tick := Tick(0)
			var sawEmptyDelta, sawSmallDelta bool
			var fullLen int
			for round := 0; round < in.rounds; round++ {
				switch {
				case in.sparse && round%4 == 2:
					tick += 500
					sh.Advance(tick) // clock-only round: expect a near-empty delta
				default:
					var evs []Event
					for k := 0; k < in.events; k++ {
						tick++
						evs = append(evs, Event{Key: uint64(round*31 + k), Tick: tick})
					}
					sh.AddBatch(evs)
				}
				payload, cur, full, err := sh.DeltaSnapshot(st.Cursor())
				if err != nil {
					t.Fatalf("%s %v round %d: %v", in.name, algo, round, err)
				}
				if round == 0 {
					if !full {
						t.Fatalf("%s %v: bootstrap pull not full", in.name, algo)
					}
					fullLen = len(payload)
				} else {
					if full {
						t.Fatalf("%s %v round %d: expected delta", in.name, algo, round)
					}
					if len(payload) < 64 {
						sawEmptyDelta = true
					}
					if len(payload)*3 < fullLen {
						sawSmallDelta = true
					}
				}
				if err := st.Apply(payload, cur, full); err != nil {
					t.Fatalf("%s %v round %d: apply: %v", in.name, algo, round, err)
				}
				got, err := st.Materialize()
				if err != nil {
					t.Fatalf("%s %v round %d: materialize: %v", in.name, algo, round, err)
				}
				want, err := sh.Snapshot()
				if err != nil {
					t.Fatalf("%s %v round %d: snapshot: %v", in.name, algo, round, err)
				}
				if !bytes.Equal(got.Marshal(), want.Marshal()) {
					t.Fatalf("%s %v round %d (tick %d): delta reconstruction diverged from full snapshot", in.name, algo, round, tick)
				}
			}
			if in.sparse && !sawEmptyDelta {
				t.Errorf("%v: clock-only rounds never produced a near-empty delta", algo)
			}
			if in.sparse && !sawSmallDelta {
				t.Errorf("%v: sparse rounds never produced a small delta", algo)
			}
		}
	}
}
