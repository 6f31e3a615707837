package ecmsketch

// White-box tests of the snapshot-based query engine behind Sharded: the
// acceptance criteria are (a) the published view answers bit-identically to
// from-scratch snapshots of every stripe at the same version — point
// queries from the key's stripe, aggregates summed over the stripes — and
// its merged encoding to a from-scratch Merge of them, including after
// rebuilds that follow writes, and (b) a reader stampede onto an expired
// view pays exactly one rebuild.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ecmsketch/internal/workload"
)

func viewTestParams() Params {
	return Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 8192, Seed: 11}
}

// stripeBaseline rebuilds, from scratch, exactly what the query engine
// claims the view is: every stripe snapshotted and advanced to the engine
// clock, in stripe order.
func stripeBaseline(t *testing.T, sh *Sharded) []*Sketch {
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
	return parts
}

// fullMergeBaseline is what Marshal and Snapshot claim to encode: the
// stripe baseline merged in stripe order.
func fullMergeBaseline(t *testing.T, sh *Sharded) *Sketch {
	t.Helper()
	merged, err := Merge(stripeBaseline(t, sh)...)
	if err != nil {
		t.Fatalf("full merge: %v", err)
	}
	return merged
}

// stripeSums is the aggregates oracle of a view: ‖a_r‖₁ and F₂ of every
// part, summed in stripe order.
func stripeSums(parts []*Sketch, r Tick) (total, selfJoin float64) {
	for _, p := range parts {
		total += p.EstimateTotal(r)
		selfJoin += p.SelfJoin(r)
	}
	return total, selfJoin
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
// serving global queries is indistinguishable from from-scratch snapshots
// of all stripes at the same version — point answers from the key's own
// stripe, aggregates the stripe-order sums, the merged wire bytes a full
// Merge of those snapshots — both on the first build and on a rebuild
// after a write to only one stripe. With one stripe the view is its
// stripe, and every answer equals its Snapshot's.
func TestShardedViewBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) { testShardedViewBitIdentical(t, shards) })
	}
}

func testShardedViewBitIdentical(t *testing.T, shards int) {
	p := viewTestParams()
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	now := feedShardedView(t, sh, 1, 20000, 0)
	keys := []uint64{1, 2, 3, 99, 7777}

	check := func(stage string) {
		t.Helper()
		view, err := sh.queryView()
		if err != nil {
			t.Fatalf("%s: queryView: %v", stage, err)
		}
		merged, err := view.merged()
		if err != nil {
			t.Fatalf("%s: merging the view: %v", stage, err)
		}
		parts := stripeBaseline(t, sh)
		baseline := fullMergeBaseline(t, sh)
		if got, want := marshalNormalized(t, merged), marshalNormalized(t, baseline); !bytes.Equal(got, want) {
			t.Fatalf("%s: view encoding differs from full merge (%d vs %d bytes)", stage, len(got), len(want))
		}
		snap, err := sh.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", stage, err)
		}
		if got, want := marshalNormalized(t, snap), marshalNormalized(t, baseline); !bytes.Equal(got, want) {
			t.Fatalf("%s: Snapshot encoding differs from full merge (%d vs %d bytes)", stage, len(got), len(want))
		}
		if got, want := sh.Marshal(), merged.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("%s: Marshal differs from the view's merge (%d vs %d bytes)", stage, len(got), len(want))
		}
		for _, r := range []Tick{p.WindowLength, p.WindowLength / 3, 100} {
			total, selfJoin := stripeSums(parts, r)
			if got := sh.SelfJoin(r); got != selfJoin {
				t.Errorf("%s: SelfJoin(%d) = %v, want %v (bit-identical)", stage, r, got, selfJoin)
			}
			if got := sh.EstimateTotal(r); got != total {
				t.Errorf("%s: EstimateTotal(%d) = %v, want %v (bit-identical)", stage, r, got, total)
			}
		}
		q := QueryBatch{Keys: keys, Total: true, SelfJoin: true}
		res, err := sh.QueryBatch(q)
		if err != nil {
			t.Fatalf("%s: QueryBatch: %v", stage, err)
		}
		direct, err := sh.QueryDirect(QueryBatch{Keys: keys})
		if err != nil {
			t.Fatalf("%s: QueryDirect: %v", stage, err)
		}
		for i, key := range keys {
			if want := parts[sh.stripeOf(key)].Estimate(key, p.WindowLength); res.Estimates[i] != want {
				t.Errorf("%s: batch estimate key %d = %v, want %v (bit-identical)", stage, key, res.Estimates[i], want)
			}
			if res.Estimates[i] != direct.Estimates[i] {
				t.Errorf("%s: batch estimate key %d = %v, direct read %v", stage, key, res.Estimates[i], direct.Estimates[i])
			}
		}
		total, selfJoin := stripeSums(parts, p.WindowLength)
		if res.Total != total {
			t.Errorf("%s: batch total = %v, want %v", stage, res.Total, total)
		}
		if res.SelfJoin != selfJoin {
			t.Errorf("%s: batch self-join = %v, want %v", stage, res.SelfJoin, selfJoin)
		}
		if shards == 1 {
			want, _ := snap.QueryBatch(q)
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: one-stripe QueryBatch = %+v, want its Snapshot's %+v", stage, res, want)
			}
		}
	}

	check("first build")
	before := sh.ViewRebuilds()

	// Mutate exactly one stripe: the next rebuild settles the unchanged
	// others at the new clock along with it.
	sh.Add(424242, now+1)
	check(fmt.Sprintf("rebuild after a one-stripe write (1 of %d stripes changed)", shards))
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
	v, err := sh.queryView()
	if err != nil {
		t.Fatal(err)
	}
	// Read the bare stripe snapshots, not their aggregate memos, so a moved
	// clock or a leaked write would show in the counters themselves.
	total := func() (sum float64) {
		for _, part := range v.parts {
			sum += part.Sketch().EstimateTotal(p.WindowLength)
		}
		return sum
	}
	clocks := func() (tick []Tick) {
		for _, part := range v.parts {
			tick = append(tick, part.Sketch().Now())
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

// viewFront is the read surface both tiers publish frozen views through.
type viewFront interface {
	QueryBatch(QueryBatch) (QueryResult, error)
	Snapshot() (*Sketch, error)
}

// viewOracle answers as front's published view must, both an aggregate
// batch q and the single-query aggregates over the last r ticks: from a
// fresh Snapshot of the view, except on a many-stripe Sharded engine, whose
// view is its stripes — there the aggregates are the stripe-order sums over
// from-scratch stripe snapshots (stripeBaseline).
func viewOracle(t *testing.T, stage string, front viewFront) (batch func(QueryBatch) QueryResult, single func(Tick) (total, selfJoin float64)) {
	t.Helper()
	if sh, ok := front.(*Sharded); ok && sh.Shards() > 1 {
		parts := stripeBaseline(t, sh)
		batch = func(q QueryBatch) QueryResult {
			r := q.Range
			if r == 0 {
				r = sh.Params().WindowLength
			}
			res := QueryResult{Now: sh.Now(), Range: r}
			total, selfJoin := stripeSums(parts, r)
			if q.Total {
				res.Total = total
			}
			if q.SelfJoin {
				res.SelfJoin = selfJoin
			}
			return res
		}
		return batch, func(r Tick) (float64, float64) { return stripeSums(parts, r) }
	}
	snap, err := front.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot: %v", stage, err)
	}
	batch = func(q QueryBatch) QueryResult {
		res, _ := snap.QueryBatch(q)
		return res
	}
	return batch, func(r Tick) (float64, float64) { return snap.EstimateTotal(r), snap.SelfJoin(r) }
}

// checkViewAggregates compares every aggregate shape front answers from its
// memoised view against viewOracle, bit for bit, at ranges 0, 1, W/2, W
// and 2W, asking each twice so both the miss and the hit are checked. It
// returns the whole-window total.
func checkViewAggregates(t *testing.T, stage string, front viewFront) float64 {
	t.Helper()
	oracle, single := viewOracle(t, stage, front)
	W := oracle(QueryBatch{}).Range
	shapes := []QueryBatch{{Total: true}, {SelfJoin: true}, {Total: true, SelfJoin: true}}
	for _, r := range []Tick{0, 1, W / 2, W, 2 * W} {
		for _, shape := range shapes {
			q := shape
			q.Range = r
			want := oracle(q)
			for pass := 0; pass < 2; pass++ {
				got, err := front.QueryBatch(q)
				if err != nil {
					t.Fatalf("%s: QueryBatch: %v", stage, err)
				}
				if math.Float64bits(got.Total) != math.Float64bits(want.Total) ||
					math.Float64bits(got.SelfJoin) != math.Float64bits(want.SelfJoin) ||
					got.Range != want.Range || got.Now != want.Now {
					t.Errorf("%s: %+v pass %d = %+v, want %+v", stage, q, pass, got, want)
				}
			}
		}
	}
	if sh, ok := front.(*Sharded); ok {
		for _, r := range []Tick{0, 1, W / 2, W, 2 * W} {
			total, selfJoin := single(r)
			if got := sh.EstimateTotal(r); math.Float64bits(got) != math.Float64bits(total) {
				t.Errorf("%s: EstimateTotal(%d) = %v, want %v", stage, r, got, total)
			}
			if got := sh.SelfJoin(r); math.Float64bits(got) != math.Float64bits(selfJoin) {
				t.Errorf("%s: SelfJoin(%d) = %v, want %v", stage, r, got, selfJoin)
			}
		}
		if got := sh.EstimateTotal(0); got != 0 {
			t.Errorf("%s: EstimateTotal(0) = %v, want 0", stage, got)
		}
	}
	total, _ := single(W)
	return total
}

// TestViewAggregatesBitIdentical pins the per-view aggregate memo at both
// tiers: on Sharded engines of one and four stripes, with a MergeTTL and in
// strict mode, and on a coordinator over two sites, every memoised Total and
// SelfJoin equals a fresh Snapshot's QueryBatch of the same view, and a
// write followed by a rebuild or Refresh is answered anew.
func TestViewAggregatesBitIdentical(t *testing.T) {
	p := viewTestParams()
	for _, shards := range []int{1, 4} {
		for _, ttl := range []time.Duration{0, 5 * time.Millisecond} {
			t.Run(fmt.Sprintf("sharded-%d-ttl-%v", shards, ttl), func(t *testing.T) {
				sh, err := NewSharded(ShardedConfig{Params: p, Shards: shards, MergeTTL: ttl})
				if err != nil {
					t.Fatal(err)
				}
				now := feedShardedView(t, sh, 21, 12000, 0)
				before := checkViewAggregates(t, "first view", sh)
				rebuilds := sh.ViewRebuilds()
				sh.AddN(77, now, 500)
				// Strict mode rebuilds on the next read; with a TTL the first
				// read after it lapses does.
				deadline := time.Now().Add(10 * time.Second)
				for {
					sh.EstimateTotal(p.WindowLength)
					if sh.ViewRebuilds() != rebuilds {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("no rebuild after a write")
					}
					time.Sleep(time.Millisecond)
				}
				if after := checkViewAggregates(t, "after a write", sh); after == before {
					t.Errorf("total %v unchanged by 500 arrivals: the memo outlived its view", after)
				}
			})
		}
	}
	t.Run("coordinator-2-sites", func(t *testing.T) {
		var sites []Site
		var engines []*Sharded
		for i := 0; i < 2; i++ {
			sh, err := NewSharded(ShardedConfig{Params: p, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			feedShardedView(t, sh, int64(30+i), 9000, 0)
			engines = append(engines, sh)
			sites = append(sites, NewLocalSite(fmt.Sprint("site", i), sh))
		}
		co := NewCoordinator(sites...)
		if err := co.Refresh(); err != nil {
			t.Fatal(err)
		}
		before := checkViewAggregates(t, "first round", co)
		engines[1].AddN(77, engines[1].Now(), 500)
		if err := co.Refresh(); err != nil {
			t.Fatal(err)
		}
		if after := checkViewAggregates(t, "after a write", co); after == before {
			t.Errorf("total %v unchanged by 500 arrivals: the memo outlived its view", after)
		}
	})
}

// TestShardedViewAccuracy pins what a view of stripe snapshots buys: every
// answer QueryBatch gives — point estimates, ‖a_r‖₁ and F₂ — falls within
// a single sketch's error bound against the exact oracle, not the inflated
// bound of the Theorem 4 merge, on every stripe count and algorithm.
func TestShardedViewAccuracy(t *testing.T) {
	const W = 4096
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW} {
		for _, shards := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%v-shards-%d", algo, shards), func(t *testing.T) {
				p := Params{Epsilon: 0.05, Delta: 0.1, WindowLength: W, Seed: 5, Algorithm: algo, UpperBound: 1 << 16}
				sh, err := NewSharded(ShardedConfig{Params: p, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				oracle := workload.NewOracle(W)
				rng := rand.New(rand.NewSource(int64(shards)))
				zipf := rand.NewZipf(rng, 1.1, 1, 2047)
				batch := make([]Event, 0, 256)
				for tick := Tick(1); tick <= 3*W; tick++ {
					for e := 0; e < 2; e++ {
						k := zipf.Uint64()
						batch = append(batch, Event{Key: k, Tick: tick})
						oracle.Add(k, tick)
					}
					if len(batch) == cap(batch) {
						sh.AddBatch(batch)
						batch = batch[:0]
					}
				}
				sh.AddBatch(batch)
				bound := sh.shards[0].sk.EffectiveSplit().PointErrorBound()
				keys := make([]uint64, 64)
				for i := range keys {
					keys[i] = uint64(i)
				}
				for _, r := range []Tick{W, W / 3} {
					res, err := sh.QueryBatch(QueryBatch{Keys: keys, Range: r, Total: true, SelfJoin: true})
					if err != nil {
						t.Fatal(err)
					}
					l1 := float64(oracle.Total(r))
					for i, k := range keys {
						if got, want := res.Estimates[i], float64(oracle.Freq(k, r)); math.Abs(got-want) > bound*l1 {
							t.Errorf("r=%d key %d: estimate %v, exact %v: off by more than %.3f·‖a_r‖₁ = %v", r, k, got, want, bound, bound*l1)
						}
					}
					if math.Abs(res.Total-l1) > bound*l1 {
						t.Errorf("r=%d: total %v, exact %v: off by more than %.3f·‖a_r‖₁", r, res.Total, l1, bound)
					}
					if want := oracle.SelfJoin(r); math.Abs(res.SelfJoin-want) > bound*l1*l1 {
						t.Errorf("r=%d: F₂ %v, exact %v: off by more than %.3f·‖a_r‖₁²", r, res.SelfJoin, want, bound)
					}
				}
			})
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
	p := viewTestParams()
	sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	now := feedShardedView(t, sh, 5, 8000, 0)
	v, err := sh.queryView()
	if err != nil {
		t.Fatal(err)
	}
	encode := func() [][]byte {
		enc := make([][]byte, len(v.parts))
		for i, part := range v.parts {
			enc[i] = part.Sketch().Marshal()
		}
		return enc
	}
	before := encode()
	var stripe0 []uint64 // keys only stripe 0 owns
	for k := uint64(0); len(stripe0) < 16; k++ {
		if sh.stripeOf(k) == 0 {
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
				for _, part := range v.parts {
					part.Sketch().Estimate(1, p.WindowLength)
					part.Sketch().EstimateTotal(p.WindowLength / 2)
				}
			}
		}()
	}
	rebuilds := sh.ViewRebuilds()
	for i, tick := 0, now; i < 200; i++ {
		tick += 7
		sh.AddBatch([]Event{{Key: stripe0[i%len(stripe0)], Tick: tick}})
		if _, err := sh.QueryBatch(QueryBatch{Keys: stripe0[:2], Total: true}); err != nil {
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
			p := viewTestParams()
			sh, err := NewSharded(ShardedConfig{Params: p, Shards: 4, Async: async})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sh.Close() })
			feedShardedView(t, sh, 3, 6000, 0)
			keys := []uint64{1, 2, 3, 99, 7777}

			check := func(stage string, wantRebuilds uint64) {
				t.Helper()
				sh.Flush()
				before := sh.ViewRebuilds()
				var res QueryResult
				for i := 0; i < 3; i++ {
					if res, err = sh.QueryBatch(QueryBatch{Keys: keys, Total: true, SelfJoin: true}); err != nil {
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
				v := sh.view.Load()
				parts := stripeBaseline(t, sh)
				if v.now != sh.Now() {
					t.Errorf("%s: view clock %d, engine clock %d", stage, v.now, sh.Now())
				}
				for i, part := range parts {
					if got, want := marshalNormalized(t, v.parts[i].Sketch()), marshalNormalized(t, part); !bytes.Equal(got, want) {
						t.Errorf("%s: view part %d differs from its stripe baseline (%d vs %d bytes)", stage, i, len(got), len(want))
					}
				}
				for i, key := range keys {
					if want := parts[sh.stripeOf(key)].Estimate(key, p.WindowLength); res.Estimates[i] != want {
						t.Errorf("%s: estimate key %d = %v, want %v (bit-identical)", stage, key, res.Estimates[i], want)
					}
				}
				total, selfJoin := stripeSums(parts, p.WindowLength)
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
