package ecmsketch_test

import (
	"fmt"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/difftest"
)

// TestShardedWritePathsCoincide pins that the engine has one write path:
// one write-rule log fed as single AddNs, as its batches, alternating the
// two, through an Async engine and through a durable engine that crashes
// and recovers leaves every stripe byte-identical, with equal versions and
// equal answers.
func TestShardedWritePathsCoincide(t *testing.T) {
	for _, algo := range []ecmsketch.Algorithm{ecmsketch.AlgoEH, ecmsketch.AlgoDW} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v_shards=%d", algo, shards), func(t *testing.T) {
				h := difftest.New(t, parallelShardedParams(algo))
				cfg := ecmsketch.ShardedConfig{Shards: shards}
				async := cfg
				async.Async = true
				h.Same(h.Sharded(0, cfg, difftest.Singles), h.Sharded(0, cfg, difftest.Batches),
					h.Sharded(0, cfg, difftest.Mixed), h.Sharded(0, async, difftest.Mixed),
					h.Durable(0, cfg, difftest.Mixed, difftest.Abrupt))
				h.Run(rulesLog(int64(shards), 4096))
			})
		}
	}
}
