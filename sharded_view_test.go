package ecmsketch

// White-box tests of the snapshot-based query engine behind Sharded: the
// acceptance criteria of the refactor are (a) the published merged view is
// bit-identical to a from-scratch Merge of every stripe at the same version,
// including after incremental rebuilds that reuse cached stripe snapshots,
// and (b) a reader stampede onto an expired view pays exactly one merge.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func viewTestParams() Params {
	return Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 8192, Seed: 11}
}

// fullMergeBaseline rebuilds, from scratch, exactly what the query engine
// claims the view is: every stripe snapshotted, advanced to the engine
// clock, and merged in stripe order.
func fullMergeBaseline(t *testing.T, sh *Sharded) *Sketch {
	t.Helper()
	now := sh.now.Load()
	parts := make([]*Sketch, len(sh.shards))
	for i := range sh.shards {
		s := &sh.shards[i]
		s.mu.Lock()
		part, err := s.sk.Snapshot()
		s.mu.Unlock()
		if err != nil {
			t.Fatalf("snapshotting shard %d: %v", i, err)
		}
		part.Advance(now)
		parts[i] = part
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatalf("full merge: %v", err)
	}
	return merged
}

// marshalNormalized serializes an independent copy of a sketch with the
// identifier salt pinned, so two sketches with identical counter content
// encode identically (the salt only feeds auto-generated randomized-wave
// identifiers and is freshly drawn per construction).
func marshalNormalized(t *testing.T, s *Sketch) []byte {
	t.Helper()
	c, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c.SetIDSalt(0)
	return c.Marshal()
}

func feedShardedView(t *testing.T, sh *Sharded, seed int64, events int, startTick Tick) Tick {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, 2048)
	batch := make([]Event, 0, 128)
	now := startTick
	for i := 0; i < events; i++ {
		now++
		batch = append(batch, Event{Key: zipf.Uint64(), Tick: now})
		if len(batch) == cap(batch) {
			sh.AddBatch(batch)
			batch = batch[:0]
		}
	}
	sh.AddBatch(batch)
	return now
}

// TestShardedViewBitIdentical pins the central equivalence: the view
// serving global queries is indistinguishable — same wire bytes, same
// query answers — from a full Merge of all stripes at the same version,
// both on the first build and on an incremental rebuild that re-snapshots
// only the one stripe that changed.
func TestShardedViewBitIdentical(t *testing.T) {
	p := viewTestParams()
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	now := feedShardedView(t, sh, 1, 20000, 0)

	check := func(stage string) {
		t.Helper()
		view, err := sh.queryView()
		if err != nil {
			t.Fatalf("%s: queryView: %v", stage, err)
		}
		baseline := fullMergeBaseline(t, sh)
		if got, want := marshalNormalized(t, view), marshalNormalized(t, baseline); !bytes.Equal(got, want) {
			t.Fatalf("%s: view encoding differs from full merge (%d vs %d bytes)", stage, len(got), len(want))
		}
		for _, r := range []Tick{p.WindowLength, p.WindowLength / 3, 100} {
			if got, want := sh.SelfJoin(r), baseline.SelfJoin(r); got != want {
				t.Errorf("%s: SelfJoin(%d) = %v, want %v (bit-identical)", stage, r, got, want)
			}
			if got, want := sh.EstimateTotal(r), baseline.EstimateTotal(r); got != want {
				t.Errorf("%s: EstimateTotal(%d) = %v, want %v (bit-identical)", stage, r, got, want)
			}
		}
		res, err := sh.QueryBatch(QueryBatch{Keys: []uint64{1, 2, 3, 99, 7777}, Total: true, SelfJoin: true})
		if err != nil {
			t.Fatalf("%s: QueryBatch: %v", stage, err)
		}
		for i, key := range []uint64{1, 2, 3, 99, 7777} {
			if want := baseline.Estimate(key, p.WindowLength); res.Estimates[i] != want {
				t.Errorf("%s: batch estimate key %d = %v, want %v (bit-identical)", stage, key, res.Estimates[i], want)
			}
		}
		if want := baseline.EstimateTotal(p.WindowLength); res.Total != want {
			t.Errorf("%s: batch total = %v, want %v", stage, res.Total, want)
		}
		if want := baseline.SelfJoin(p.WindowLength); res.SelfJoin != want {
			t.Errorf("%s: batch self-join = %v, want %v", stage, res.SelfJoin, want)
		}
	}

	check("first build")
	before := sh.ViewRebuilds()

	// Mutate exactly one stripe, so the next rebuild must combine one fresh
	// snapshot with seven cached ones — the incremental path.
	sh.Add(424242, now+1)
	check("incremental rebuild (1 of 8 stripes changed)")
	if got := sh.ViewRebuilds(); got != before+1 {
		t.Errorf("rebuilds after one write burst = %d, want %d", got, before+1)
	}

	// And again after a broad write burst touching many stripes.
	feedShardedView(t, sh, 2, 5000, now+1)
	check("rebuild after broad burst")
}

// TestShardedViewFrozen asserts the published view really is immutable:
// queries against it do not move its clock, and a stripe write after the
// build does not leak into the already-published view.
func TestShardedViewFrozen(t *testing.T) {
	p := viewTestParams()
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4, MergeTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	now := feedShardedView(t, sh, 3, 5000, 0)
	view, err := sh.queryView()
	if err != nil {
		t.Fatal(err)
	}
	if view.Now() != now {
		t.Fatalf("view clock = %d, want engine clock %d", view.Now(), now)
	}
	total := view.EstimateTotal(p.WindowLength)
	sh.AddN(7, now+10, 1000)
	if got := view.Now(); got != now {
		t.Errorf("view clock moved to %d after a write; views must be frozen", got)
	}
	if got := view.EstimateTotal(p.WindowLength); got != total {
		t.Errorf("published view changed under a write: total %v -> %v", total, got)
	}
	// Within the TTL the engine still serves that same frozen view.
	if got := sh.EstimateTotal(p.WindowLength); got != total {
		t.Errorf("cached global query = %v, want the frozen view's %v", got, total)
	}
}

// TestShardedSingleFlightRebuild is the stampede test: 16 readers hitting a
// TTL-expired view trigger exactly one merge, with every reader answered
// (from the previous view or the fresh one — never blocking behind N-1
// redundant merges).
func TestShardedSingleFlightRebuild(t *testing.T) {
	p := viewTestParams()
	const ttl = 30 * time.Millisecond
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4, MergeTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	now := feedShardedView(t, sh, 4, 10000, 0)
	if got := sh.EstimateTotal(p.WindowLength); got <= 0 {
		t.Fatalf("priming query returned %v", got)
	}
	base := sh.ViewRebuilds()

	// Invalidate: one write moves the version sum, and the TTL lapses.
	sh.Add(5, now+1)
	time.Sleep(ttl + 10*time.Millisecond)

	const readers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if got := sh.SelfJoin(p.WindowLength); got <= 0 {
					t.Error("reader got non-positive self-join")
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	// No further writes happened, so after the first rebuild the version
	// sums match and every later query is a cache hit: the stampede must
	// have paid exactly one merge.
	if got := sh.ViewRebuilds(); got != base+1 {
		t.Errorf("rebuilds during stampede = %d, want exactly %d", got-base, 1)
	}
}

// TestShardedStrictFreshness pins the MergeTTL == 0 contract after the
// refactor: every global query reflects every write that completed before
// the call, which means rebuilding (not stale-serving) on each version
// change.
func TestShardedStrictFreshness(t *testing.T) {
	p := viewTestParams()
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		sh.AddN(uint64(i), Tick(i), 50)
		if got := sh.EstimateTotal(p.WindowLength); got < float64(i*50)*0.9 {
			t.Fatalf("after %d writes: total %v lags the stream (strict freshness broken)", i, got)
		}
	}
}
