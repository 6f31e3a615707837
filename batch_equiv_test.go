package ecmsketch_test

import (
	"fmt"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/difftest"
)

// parallelShardedParams sizes the array so the merge worker pool engages
// (512 cells clears the per-worker floor for several workers).
func parallelShardedParams(algo ecmsketch.Algorithm) ecmsketch.Params {
	return ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, Width: 256, Depth: 2,
		WindowLength: 4096, Seed: 7, Algorithm: algo, UpperBound: 1 << 16}
}

// rulesLog is a write-rule log over a window of w ticks: every corner of
// the write rule, a jump past two windows, Flush ops and two crash points.
func rulesLog(seed int64, w ecmsketch.Tick) difftest.Log {
	return difftest.Gen(seed, difftest.Shape{Window: w, Events: 900, Ticks: 1400, Keys: 97,
		Batch: 32, Pulls: 6, Checks: 2, Rules: true})
}

// TestEngineBatchEquivalence is the property test behind the write rule
// (see Event): the plain Sketch, a one-stripe and a P-stripe Sharded
// engine, an Async engine and a server reached through ecmclient answer
// every query kind identically for one write-rule log, fed as batches or
// as single AddN calls. Identity across stripe counts holds because ε is
// small relative to the stream: no counter merges buckets and the rows are
// wide enough that the keys' counters do not collide, so stripe cells
// partition the single sketch's cells exactly.
func TestEngineBatchEquivalence(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			h := difftest.New(t, ecmsketch.Params{Epsilon: 0.002, Delta: 0.05, WindowLength: 1 << 30, Seed: uint64(7 + trial)})
			stripes := 1 << (trial % 3)
			sharded := func(shards int, async bool, m difftest.Mode) *difftest.Door {
				return h.Sharded(0, ecmsketch.ShardedConfig{Shards: shards, Async: async}, m)
			}
			h.Agree(h.Sketch(0, difftest.Batches), sharded(1, false, difftest.Batches), sharded(stripes, false, difftest.Batches),
				h.Sketch(0, difftest.Singles), sharded(1, false, difftest.Singles), sharded(stripes, false, difftest.Singles),
				sharded(stripes, true, difftest.Singles), h.Client(0, stripes, difftest.Singles))
			h.Run(difftest.Gen(int64(41+trial), difftest.Shape{Window: 1 << 30, Events: 90, Ticks: 2000, Keys: 32,
				Batch: 20, Checks: 2, Rules: true}))
		})
	}
}
