package ecmsketch_test

// Tests of the snapshot-based query engine behind Sharded: the published
// view answers bit-identically to from-scratch snapshots of every stripe at
// the same version — point queries from the key's stripe, aggregates summed
// over the stripes — and its merged encoding to a from-scratch Merge of
// them; it is frozen once published; and a reader stampede onto an expired
// view pays exactly one rebuild.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/internal/difftest"
)

var viewParams = ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 8192, Seed: 11}

// viewLog is a Zipf(1.3) stream of events arrivals, one a tick.
func viewLog(seed int64, events int, checks int) difftest.Log {
	return difftest.Gen(seed, difftest.Shape{Window: viewParams.WindowLength, Events: events,
		Ticks: ecmsketch.Tick(events), Keys: 2048, Zipf: 1.3, Batch: 128, Checks: checks})
}

func viewFeed(sh *ecmsketch.Sharded, seed int64, events int) ecmsketch.Tick {
	difftest.Feed(sh, viewLog(seed, events, 0))
	return sh.Now()
}

// normalized serializes an independent copy of a sketch with the identifier
// salt pinned, so two sketches with identical counters encode identically.
func normalized(t *testing.T, s *ecmsketch.Sketch) []byte {
	t.Helper()
	c, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c.SetIDSalt(0)
	return c.Marshal()
}

// stripesOf is the stripe-snapshot reference of a Sharded door.
func stripesOf(h *difftest.H, d *difftest.Door) *difftest.Door {
	return h.Stripes(d, func(k uint64) int { return ecmsketch.StripeOf(d.Engine(), k) })
}

// TestShardedViewBitIdentical pins the central equivalence: the view
// serving global queries is indistinguishable from from-scratch snapshots
// of all stripes at the same version — point answers from the key's own
// stripe, aggregates the stripe-order sums, the merged bytes a Merge of
// those snapshots — at every rebuild along a Zipf stream.
func TestShardedViewBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			h := difftest.New(t, viewParams)
			sh := h.Sharded(0, ShardedConfig{Shards: shards}, difftest.Batches)
			h.Same(stripesOf(h, sh), sh)
			h.Run(viewLog(1, 20000, 3))
		})
	}
}

// TestViewAggregatesBitIdentical pins the per-view aggregate memo at both
// tiers: on Sharded engines of one and four stripes, with a MergeTTL and in
// strict mode, and on a coordinator over two sites, every memoised Total and
// SelfJoin — asked twice, a miss and a hit — equals the stripe sums of the
// same view, and later writes are answered anew.
func TestViewAggregatesBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, ttl := range []time.Duration{0, 5 * time.Millisecond} {
			t.Run(fmt.Sprintf("sharded-%d-ttl-%v", shards, ttl), func(t *testing.T) {
				h := difftest.New(t, viewParams)
				sh := h.Sharded(0, ShardedConfig{Shards: shards, MergeTTL: ttl}, difftest.Batches)
				h.Same(stripesOf(h, sh), sh)
				h.Run(viewLog(21, 12000, 2))
			})
		}
	}
	t.Run("coordinator-2-sites", func(t *testing.T) {
		h := difftest.New(t, viewParams)
		co := h.Coord(difftest.Local, h.Sharded(0, ShardedConfig{Shards: 2}, difftest.Batches),
			h.Sharded(1, ShardedConfig{Shards: 2}, difftest.Batches))
		h.Same(h.Merged(co), co)
		h.Run(difftest.Gen(30, difftest.Shape{Window: viewParams.WindowLength, Events: 18000, Ticks: 9000,
			Sites: 2, Keys: 2048, Zipf: 1.3, Batch: 128, Checks: 2}))
	})
}

// TestShardedViewAccuracy pins what a view of stripe snapshots buys: every
// answer QueryBatch gives — point estimates, ‖a_r‖₁ and F₂ — falls within
// a single sketch's error bound against the exact oracle, not the inflated
// bound of the Theorem 4 merge, on every stripe count and served algorithm.
func TestShardedViewAccuracy(t *testing.T) {
	const W = 4096
	for _, algo := range []ecmsketch.Algorithm{AlgoEH, AlgoDW} {
		for _, shards := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%v-shards-%d", algo, shards), func(t *testing.T) {
				h := difftest.New(t, ecmsketch.Params{Epsilon: 0.05, Delta: 0.1, WindowLength: W, Seed: 5,
					Algorithm: algo, UpperBound: 1 << 16})
				sh := h.Sharded(0, ShardedConfig{Shards: shards}, difftest.Batches)
				h.Bounded(sh)
				h.Run(difftest.Gen(int64(shards), difftest.Shape{Window: W, Events: 6 * W, Ticks: 3 * W,
					Keys: 2048, Zipf: 1.1, Batch: 256}))
				h.Totals(t, sh)
			})
		}
	}
}

// TestShardedViewFrozen asserts the published view really is immutable:
// queries against it do not move its clock, and a stripe write after the
// build does not leak into the already-published view.
func TestShardedViewFrozen(t *testing.T) {
	p := viewParams
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4, MergeTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	now := viewFeed(sh, 3, 5000)
	parts, _, err := ecmsketch.ViewParts(sh)
	if err != nil {
		t.Fatal(err)
	}
	// Read the bare stripe snapshots, not their aggregate memos, so a moved
	// clock or a leaked write would show in the counters themselves.
	total := func() (sum float64) {
		for _, part := range parts {
			sum += part.EstimateTotal(p.WindowLength)
		}
		return sum
	}
	clocks := func() (tick []ecmsketch.Tick) {
		for _, part := range parts {
			tick = append(tick, part.Now())
		}
		return tick
	}
	for i, c := range clocks() {
		if c != now {
			t.Fatalf("part %d clock = %d, want engine clock %d", i, c, now)
		}
	}
	before := total()
	sh.AddN(7, now+10, 1000)
	for i, c := range clocks() {
		if c != now {
			t.Errorf("part %d clock moved to %d after a write; views must be frozen", i, c)
		}
	}
	if got := total(); got != before {
		t.Errorf("published view changed under a write: total %v -> %v", before, got)
	}
	// Within the TTL the engine still serves that same frozen view.
	if got := sh.EstimateTotal(p.WindowLength); got != before {
		t.Errorf("cached global query = %v, want the frozen view's %v", got, before)
	}
}

// TestShardedSingleFlightRebuild is the stampede test: 16 readers hitting a
// TTL-expired view trigger exactly one merge, with every reader answered
// (from the previous view or the fresh one — never blocking behind N-1
// redundant merges).
func TestShardedSingleFlightRebuild(t *testing.T) {
	p := viewParams
	const ttl = 30 * time.Millisecond
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4, MergeTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	now := viewFeed(sh, 4, 10000)
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
	p := viewParams
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		sh.AddN(uint64(i), ecmsketch.Tick(i), 50)
		if got := sh.EstimateTotal(p.WindowLength); got < float64(i*50)*0.9 {
			t.Fatalf("after %d writes: total %v lags the stream (strict freshness broken)", i, got)
		}
	}
}

// TestShardedViewFrozenUnderRebuild pins the rule that a published part is
// never advanced in place: a reader holding a view keeps reading the same
// bytes while writers move the engine clock through one stripe and strict
// freshness rebuilds the view after every write. The other stripes do not
// change, yet each rebuild settles them at the new clock; settling a
// published part instead of a fresh clone would rewrite the held view under
// its reader (and race with it under -race).
func TestShardedViewFrozenUnderRebuild(t *testing.T) {
	p := viewParams
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	now := viewFeed(sh, 5, 8000)
	parts, _, err := ecmsketch.ViewParts(sh)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() [][]byte {
		enc := make([][]byte, len(parts))
		for i, part := range parts {
			enc[i] = part.Marshal()
		}
		return enc
	}
	before := encode()
	var stripe0 []uint64 // keys only stripe 0 owns
	for k := uint64(0); len(stripe0) < 16; k++ {
		if ecmsketch.StripeOf(sh, k) == 0 {
			stripe0 = append(stripe0, k)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, part := range parts {
					part.Estimate(1, p.WindowLength)
					part.EstimateTotal(p.WindowLength / 2)
				}
			}
		}()
	}
	rebuilds := sh.ViewRebuilds()
	for i, tick := 0, now; i < 200; i++ {
		tick += 7
		sh.AddBatch([]ecmsketch.Event{{Key: stripe0[i%len(stripe0)], Tick: tick}})
		if _, err := sh.QueryBatch(ecmsketch.QueryBatch{Keys: stripe0[:2], Total: true}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := sh.ViewRebuilds() - rebuilds; got != 200 {
		t.Fatalf("%d rebuilds, want one per write (200)", got)
	}
	for i, enc := range encode() {
		if !bytes.Equal(enc, before[i]) {
			t.Errorf("part %d of a held view changed under later rebuilds", i)
		}
	}
}

// TestShardedViewFreshness pins when a view is rebuilt: exactly when an
// answer could change. Reads, and an Advance that does not pass the engine
// clock, leave the published view serving; an Advance past the clock, or a
// write, costs exactly one rebuild; and every rebuilt view is the stripe
// baseline, bit for bit. Async engines are flushed before each check.
func TestShardedViewFreshness(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async-%v", async), func(t *testing.T) {
			p := viewParams
			sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4, Async: async})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sh.Close() })
			viewFeed(sh, 3, 6000)
			keys := []uint64{1, 2, 3, 99, 7777}

			check := func(stage string, wantRebuilds uint64) {
				t.Helper()
				sh.Flush()
				before := sh.ViewRebuilds()
				var res ecmsketch.QueryResult
				for i := 0; i < 3; i++ {
					if res, err = sh.QueryBatch(ecmsketch.QueryBatch{Keys: keys, Total: true, SelfJoin: true}); err != nil {
						t.Fatalf("%s: QueryBatch: %v", stage, err)
					}
					sh.EstimateTotal(p.WindowLength / 2)
					sh.SelfJoin(p.WindowLength / 2)
					for _, key := range keys {
						sh.Estimate(key, p.WindowLength)
					}
				}
				if got := sh.ViewRebuilds() - before; got != wantRebuilds {
					t.Errorf("%s: %d rebuilds, want %d", stage, got, wantRebuilds)
				}
				viewParts, viewNow, err := ecmsketch.ViewParts(sh)
				if err != nil {
					t.Fatal(err)
				}
				parts := difftest.Parts(t, sh)
				if viewNow != sh.Now() {
					t.Errorf("%s: view clock %d, engine clock %d", stage, viewNow, sh.Now())
				}
				for i, part := range parts {
					if got, want := normalized(t, viewParts[i]), normalized(t, part); !bytes.Equal(got, want) {
						t.Errorf("%s: view part %d differs from its stripe baseline (%d vs %d bytes)", stage, i, len(got), len(want))
					}
				}
				for i, key := range keys {
					if want := parts[ecmsketch.StripeOf(sh, key)].Estimate(key, p.WindowLength); res.Estimates[i] != want {
						t.Errorf("%s: estimate key %d = %v, want %v (bit-identical)", stage, key, res.Estimates[i], want)
					}
				}
				var total, selfJoin float64
				for _, part := range parts {
					total += part.EstimateTotal(p.WindowLength)
					selfJoin += part.SelfJoin(p.WindowLength)
				}
				if res.Total != total || res.SelfJoin != selfJoin {
					t.Errorf("%s: aggregates (%v, %v), want (%v, %v)", stage, res.Total, res.SelfJoin, total, selfJoin)
				}
			}

			check("first global query", 1)
			check("read burst", 0)
			sh.Advance(sh.Now())
			check("advance to the engine clock", 0)
			sh.Advance(sh.Now() - 100)
			check("advance behind the engine clock", 0)
			sh.Advance(sh.Now() + 50)
			check("advance past the engine clock", 1)
			sh.Add(424242, sh.Now())
			check("one-key write at the current tick", 1)
		})
	}
}
