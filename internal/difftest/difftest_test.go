package difftest_test

import (
	"fmt"
	"reflect"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/difftest"
)

// TestEveryDoorOneLog replays one write-rule log through the whole door
// list at once — both Sketch doors, Sharded{1} and Sharded{4} sync, Async
// and durable, the client, coordinators at depth 1 and 2 over both
// transports, a delta puller and the standing registry — for every
// synopsis, and pins that Gen is a pure function of its seed. RW, which
// Sharded does not serve, runs the Sketch doors and the coordinators over
// them, with a standing registry on the mid coordinator.
func TestEveryDoorOneLog(t *testing.T) {
	shape := difftest.Shape{Window: 512, Events: 1200, Ticks: 1500, Keys: 64, Batch: 24,
		Pulls: 12, Checks: 4, Rules: true}
	if a, b := difftest.Gen(3, shape), difftest.Gen(3, shape); !reflect.DeepEqual(a, b) {
		t.Fatal("Gen is not a function of its seed")
	}
	queries := []ecmsketch.StandingQuery{
		{Kind: ecmsketch.StandingThreshold, Key: 3, Value: 40},
		{Kind: ecmsketch.StandingTopK, K: 3, Keys: []uint64{1, 2, 3, 4, 5, 6}},
	}
	for _, algo := range []ecmsketch.Algorithm{ecmsketch.AlgoEH, ecmsketch.AlgoDW, ecmsketch.AlgoRW} {
		t.Run(fmt.Sprint(algo), func(t *testing.T) {
			h := difftest.New(t, ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, Width: 64, Depth: 2,
				WindowLength: shape.Window, UpperBound: 1 << 14, Seed: 7, Algorithm: algo})
			var one, four *difftest.Door
			if algo == ecmsketch.AlgoRW {
				one, four = h.Sketch(0, difftest.Singles), h.Sketch(0, difftest.Batches)
				h.Same(one, four)
			} else {
				one = h.Sharded(0, ecmsketch.ShardedConfig{Shards: 1}, difftest.Batches)
				h.Same(one, h.Sketch(0, difftest.Singles), h.Sketch(0, difftest.Batches))
				four = h.Sharded(0, ecmsketch.ShardedConfig{Shards: 4}, difftest.Batches)
				h.Same(four,
					h.Sharded(0, ecmsketch.ShardedConfig{Shards: 4}, difftest.Singles),
					h.Sharded(0, ecmsketch.ShardedConfig{Shards: 4}, difftest.Mixed),
					h.Sharded(0, ecmsketch.ShardedConfig{Shards: 4, Async: true}, difftest.Mixed),
					h.Durable(0, ecmsketch.ShardedConfig{Shards: 4}, difftest.Mixed, difftest.Abrupt),
					h.Client(0, 4, difftest.Batches))
			}
			mid := h.Coord(difftest.Local, one, four)
			h.Same(mid, h.Coord(difftest.HTTP, one, four), h.Fresh(difftest.Local, one, four),
				h.Merged(one, four), h.Puller(mid))
			root := h.Coord(difftest.HTTP, mid)
			h.Same(root, h.Merged(h.Merged(one, four)))
			if algo == ecmsketch.AlgoRW {
				h.Standing(mid, queries)
			} else {
				h.Standing(four, queries)
			}
			h.Run(difftest.Gen(3, shape))
		})
	}
}
