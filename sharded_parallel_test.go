package ecmsketch

import (
	"bytes"
	"testing"

	"ecmsketch/internal/core"
)

// parallelShardedParams sizes the array so the merge worker pool engages
// (512 cells clears the per-worker floor for several workers).
func parallelShardedParams(algo Algorithm) Params {
	return Params{
		Epsilon: 0.1, Delta: 0.1, Width: 256, Depth: 2,
		WindowLength: 4096, Seed: 7, Algorithm: algo, UpperBound: 1 << 16,
	}
}

func newParallelSharded(t *testing.T, algo Algorithm) *Sharded {
	t.Helper()
	sh, err := NewSharded(ShardedConfig{Params: parallelShardedParams(algo), Shards: 8})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

func feedParallelSharded(sh *Sharded, rounds int) {
	var events []Event
	for r := 0; r < rounds; r++ {
		events = events[:0]
		for e := 0; e < 500; e++ {
			events = append(events, Event{
				Key:  uint64(r*131+e*17) % 4096,
				Tick: uint64(r*50 + e/10 + 1),
			})
		}
		sh.AddBatch(events)
	}
}

// dropViewCache discards the published view and the per-stripe snapshot
// cache, forcing the next global query to rebuild every stripe from
// scratch — the hook that lets one engine state be rebuilt under both the
// sequential and the parallel path.
func dropViewCache(sh *Sharded) {
	sh.rebuild.Lock()
	sh.rebuild.parts = nil
	sh.rebuild.versions = nil
	sh.view.Store(nil)
	sh.rebuild.Unlock()
}

// TestShardedParallelRebuildByteIdentical pins the parallel view rebuild to
// the sequential one: rebuilding the very same engine state under a 1-worker
// and an 8-worker pool must publish byte-identical merged views, for every
// counter algorithm, across successive churn rounds.
func TestShardedParallelRebuildByteIdentical(t *testing.T) {
	defer core.SetMergeParallelism(0)
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW} {
		sh := newParallelSharded(t, algo)
		for round := 1; round <= 3; round++ {
			feedParallelSharded(sh, 2*round)

			core.SetMergeParallelism(1)
			dropViewCache(sh)
			seq := sh.Marshal()
			if seq == nil {
				t.Fatalf("algo %v round %d: sequential Marshal failed", algo, round)
			}

			core.SetMergeParallelism(8)
			dropViewCache(sh)
			par := sh.Marshal()
			if par == nil {
				t.Fatalf("algo %v round %d: parallel Marshal failed", algo, round)
			}
			if !bytes.Equal(seq, par) {
				t.Fatalf("algo %v round %d: parallel rebuild differs from sequential (%d vs %d bytes)",
					algo, round, len(par), len(seq))
			}
		}
	}
}

// TestShardedQueryDirectMatchesStripes pins the zero-merge read path: every
// direct answer must equal the engine's stripe-routed Estimate for the same
// key and range (the existing single-key zero-merge read), with no view
// rebuild triggered, Range 0 resolved to the window length, and aggregate
// requests rejected.
func TestShardedQueryDirectMatchesStripes(t *testing.T) {
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW} {
		sh := newParallelSharded(t, algo)
		feedParallelSharded(sh, 4)

		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = uint64(i * 53)
		}
		rebuilds := sh.ViewRebuilds()

		res, err := sh.QueryDirect(QueryBatch{Keys: keys, Range: 1000})
		if err != nil {
			t.Fatalf("algo %v: QueryDirect: %v", algo, err)
		}
		if res.Range != 1000 {
			t.Fatalf("algo %v: resolved range %d, want 1000", algo, res.Range)
		}
		for i, key := range keys {
			if want := sh.Estimate(key, 1000); res.Estimates[i] != want {
				t.Fatalf("algo %v key %d: direct %v != stripe Estimate %v", algo, key, res.Estimates[i], want)
			}
		}

		// Range 0 resolves to the window length, like QueryBatch.
		res0, err := sh.QueryDirect(QueryBatch{Keys: keys[:4]})
		if err != nil {
			t.Fatalf("algo %v: QueryDirect(range 0): %v", algo, err)
		}
		if res0.Range != sh.Params().WindowLength {
			t.Fatalf("algo %v: range 0 resolved to %d, want window %d", algo, res0.Range, sh.Params().WindowLength)
		}
		for i, key := range keys[:4] {
			if want := sh.Estimate(key, sh.Params().WindowLength); res0.Estimates[i] != want {
				t.Fatalf("algo %v key %d: whole-window direct %v != Estimate %v", algo, key, res0.Estimates[i], want)
			}
		}

		if got := sh.ViewRebuilds(); got != rebuilds {
			t.Fatalf("algo %v: direct reads triggered %d view rebuilds", algo, got-rebuilds)
		}
		if _, err := sh.QueryDirect(QueryBatch{Keys: keys[:1], Total: true}); err == nil {
			t.Fatalf("algo %v: QueryDirect accepted a Total aggregate", algo)
		}
		if _, err := sh.QueryDirect(QueryBatch{Keys: keys[:1], SelfJoin: true}); err == nil {
			t.Fatalf("algo %v: QueryDirect accepted a SelfJoin aggregate", algo)
		}
	}
}

// TestQueryDirectSingleSketchCoincides pins the DirectQuerier contract on
// the single-sketch front ends: direct and batched point answers coincide
// (a lone sketch has no stripes), and aggregates are rejected identically.
func TestQueryDirectSingleSketchCoincides(t *testing.T) {
	sk, err := New(parallelShardedParams(AlgoEH))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for e := 0; e < 2000; e++ {
		sk.Add(uint64(e%97), uint64(e/10+1))
	}
	ss := WrapSafe(sk)
	keys := []uint64{1, 5, 42, 96, 1000}
	q := QueryBatch{Keys: keys, Range: 150}
	batch, err := ss.QueryBatch(q)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	direct, err := ss.QueryDirect(q)
	if err != nil {
		t.Fatalf("QueryDirect: %v", err)
	}
	for i := range keys {
		if batch.Estimates[i] != direct.Estimates[i] {
			t.Fatalf("key %d: direct %v != batch %v", keys[i], direct.Estimates[i], batch.Estimates[i])
		}
	}
	if _, err := ss.QueryDirect(QueryBatch{Keys: keys, Total: true}); err == nil {
		t.Fatal("SafeSketch.QueryDirect accepted a Total aggregate")
	}
}

// TestShardedRebuildStats checks the rebuild timing surface: after a forced
// full rebuild the last build's wall time is recorded and the worker count
// reflects the configured cap.
func TestShardedRebuildStats(t *testing.T) {
	defer core.SetMergeParallelism(0)
	sh := newParallelSharded(t, AlgoEH)
	feedParallelSharded(sh, 4)

	core.SetMergeParallelism(1)
	dropViewCache(sh)
	if sh.Marshal() == nil {
		t.Fatal("Marshal failed")
	}
	ns, workers := sh.RebuildStats()
	if ns <= 0 {
		t.Fatalf("rebuild ns = %d, want > 0", ns)
	}
	if workers != 1 {
		t.Fatalf("workers = %d under a sequential cap, want 1", workers)
	}

	core.SetMergeParallelism(4)
	dropViewCache(sh)
	if sh.Marshal() == nil {
		t.Fatal("Marshal failed")
	}
	if _, workers = sh.RebuildStats(); workers < 1 || workers > 4 {
		t.Fatalf("workers = %d under a 4-worker cap, want 1..4", workers)
	}
}
