package ecmsketch_test

import (
	"testing"

	"ecmsketch"
	"ecmsketch/internal/difftest"
)

// TestShardedDeltaReconstructsSnapshot: a receiver that baselines once and
// then only applies stripe deltas materializes state byte-identical to a
// merge of the engine's stripes at every round. The sparse input stays in
// one window and ends on a clock-only round, whose delta must be near
// empty; the dense one runs a small window seven times over, so stripes
// whose clock equals the engine clock still hold expired cells; the
// one-stripe row runs it on the engine whose view needs no merge.
func TestShardedDeltaReconstructsSnapshot(t *testing.T) {
	for _, in := range []struct {
		name   string
		shape  difftest.Shape
		shards int
	}{
		{"sparse", difftest.Shape{Window: 10000, Events: 36, Ticks: 36, Keys: 400, Batch: 3, Pulls: 12}, 8},
		{"past-the-window", difftest.Shape{Window: 512, Events: 3840, Ticks: 3840, Keys: 2000, Batch: 64, Pulls: 60, Checks: 6}, 4},
		{"one-stripe", difftest.Shape{Window: 512, Events: 1920, Ticks: 1920, Keys: 1000, Batch: 64, Pulls: 30, Checks: 3}, 1},
	} {
		for _, algo := range []ecmsketch.Algorithm{ecmsketch.AlgoEH, ecmsketch.AlgoDW} {
			t.Run(in.name+"/"+algo.String(), func(t *testing.T) {
				h := difftest.New(t, ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: in.shape.Window,
					Seed: 5, Algorithm: algo, UpperBound: 1 << 16})
				sh := h.Sharded(0, ecmsketch.ShardedConfig{Shards: in.shards}, difftest.Batches)
				puller := h.Puller(sh)
				h.Same(h.Merged(sh), puller)
				log := difftest.Gen(5, in.shape)
				log.Ops = append(log.Ops, difftest.Op{Kind: difftest.OpAdvance, Tick: 600},
					difftest.Op{Kind: difftest.OpPull}, difftest.Op{Kind: difftest.OpCheck})
				h.Run(log)
				if n := len(puller.Pulled); in.shape.Pulls > 0 && puller.Pulled[n-1] >= 64 {
					t.Errorf("clock-only round shipped a %d-byte delta", puller.Pulled[n-1])
				}
				if in.name == "sparse" && puller.Pulled[1]*3 >= puller.Pulled[0] {
					t.Errorf("a sparse round shipped %d bytes against a %d-byte baseline", puller.Pulled[1], puller.Pulled[0])
				}
			})
		}
	}
}
