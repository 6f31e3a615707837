package ecmsketch_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/internal/workload"
)

func shardedParams() ecmsketch.Params {
	return ecmsketch.Params{Epsilon: 0.05, Delta: 0.01, WindowLength: 10000, Seed: 42}
}

func TestShardedValidation(t *testing.T) {
	p := shardedParams()
	if _, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	bad := p
	bad.Epsilon = 0
	if _, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: bad}); err == nil {
		t.Error("invalid params accepted")
	}
	cb := p
	cb.Model = ecmsketch.CountBased
	if _, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: cb}); err == nil {
		t.Error("count-based windows accepted (semantics do not survive partitioning)")
	}
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 8 {
		t.Errorf("Shards() = %d, want 8 (rounded up to a power of two)", sh.Shards())
	}
	def, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if def.Shards() < 1 {
		t.Errorf("default Shards() = %d", def.Shards())
	}
}

// TestShardedEquivalence feeds the identical stream to a Sharded engine and
// a single sketch, and checks that both answer point, total and self-join
// queries within the paper's bounds — point queries within the ε·‖a_r‖₁
// guarantee of Theorem 1 (sharded point queries touch one stripe, so they
// pay no merge error), global queries within the inflated window error of
// the Theorem 4 merge (ε_sw” = 2ε_sw + ε_sw² per counter, which the total
// ε budget of the test's tolerance comfortably covers).
func TestShardedEquivalence(t *testing.T) {
	p := shardedParams()
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	single, err := ecmsketch.New(p)
	if err != nil {
		t.Fatal(err)
	}
	oracle := workload.NewOracle(p.WindowLength)

	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 4096)
	const events = 50000
	var now ecmsketch.Tick
	batch := make([]ecmsketch.Event, 0, 256)
	for i := 0; i < events; i++ {
		now++
		k := zipf.Uint64()
		batch = append(batch, ecmsketch.Event{Key: k, Tick: now})
		single.Add(k, now)
		oracle.Add(k, now)
		if len(batch) == cap(batch) {
			sh.AddBatch(batch)
			batch = batch[:0]
		}
	}
	sh.AddBatch(batch)

	if sh.Count() != single.Count() {
		t.Fatalf("Count: sharded %d, single %d", sh.Count(), single.Count())
	}
	if sh.Now() != single.Now() {
		t.Fatalf("Now: sharded %d, single %d", sh.Now(), single.Now())
	}

	for _, r := range []ecmsketch.Tick{p.WindowLength, p.WindowLength / 4} {
		total := float64(oracle.Total(r))
		bound := p.Epsilon * total
		for key := uint64(0); key < 50; key++ {
			exact := float64(oracle.Freq(key, r))
			got := sh.Estimate(key, r)
			// Unlike a plain Count-Min, the window counters carry two-sided
			// ε_sw relative error, so small underestimates are legitimate;
			// overestimates are bounded by ε·‖a_r‖₁ plus the window error.
			if got < exact*(1-p.Epsilon)-1e-9 {
				t.Errorf("r=%d key=%d: sharded estimate %v undershoots exact %v beyond ε", r, key, got, exact)
			}
			if got-exact > bound+p.Epsilon*exact {
				t.Errorf("r=%d key=%d: sharded estimate %v exceeds exact %v by more than ε·total (%v)", r, key, got, exact, bound)
			}
		}
		// Global queries answer from the Theorem 4 merged view: compare
		// against the single sketch over the same stream, allowing the
		// merge's window-error inflation on top of the base budget.
		tol := 3 * p.Epsilon
		st, tt := sh.EstimateTotal(r), single.EstimateTotal(r)
		if tt > 0 && math.Abs(st-tt)/tt > tol {
			t.Errorf("r=%d: EstimateTotal sharded %v vs single %v (rel diff > %v)", r, st, tt, tol)
		}
		ssj, tsj := sh.SelfJoin(r), single.SelfJoin(r)
		// Self-join estimates square the per-counter values, so the merge
		// inflation doubles: (1+2ε)² - 1 ≈ 4ε slack plus the base budget.
		sjTol := 7 * p.Epsilon
		if tsj > 0 && math.Abs(ssj-tsj)/tsj > sjTol {
			t.Errorf("r=%d: SelfJoin sharded %v vs single %v (rel diff > %v)", r, ssj, tsj, sjTol)
		}
	}

	// The merged snapshot is a plain, compatible sketch: it can be merged
	// again with the single sketch (two "sites") and queried.
	snap, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	both, err := ecmsketch.Merge(snap, single)
	if err != nil {
		t.Fatalf("merging sharded snapshot with single sketch: %v", err)
	}
	if both.Count() != sh.Count()+single.Count() {
		t.Errorf("merged count %d, want %d", both.Count(), sh.Count()+single.Count())
	}
}

// TestShardedInnerProduct checks the engine's inner product against a
// compatible external sketch, spelled as everywhere: Snapshot, then
// Sketch.InnerProduct.
func TestShardedInnerProduct(t *testing.T) {
	p := shardedParams()
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	other, err := ecmsketch.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := ecmsketch.Tick(1); i <= 1000; i++ {
		sh.Add(i%10, i)
		other.Add(i%10, i)
	}
	view, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := view.InnerProduct(other, p.WindowLength)
	if err != nil {
		t.Fatal(err)
	}
	// Both streams hold 100 arrivals of each of 10 keys: true ⊙ = 10·100².
	if ip < 100000*0.9 || ip > 100000*1.5 {
		t.Errorf("InnerProduct = %v, want ≈100000", ip)
	}
}

// TestShardedMergedViewCache verifies the TTL cache: with a long TTL, a
// global query after new writes may serve the stale view; after the
// version-based path (TTL 0), it must always be fresh.
func TestShardedMergedViewCache(t *testing.T) {
	p := shardedParams()
	fresh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Add(1, 1)
	if got := fresh.EstimateTotal(p.WindowLength); got < 1 {
		t.Errorf("total before = %v, want ≥1", got)
	}
	fresh.AddN(1, 2, 99)
	if got := fresh.EstimateTotal(p.WindowLength); got < 100 {
		t.Errorf("TTL=0 must re-merge after writes: total = %v, want ≥100", got)
	}

	cached, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 2, MergeTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cached.Add(1, 1)
	if got := cached.EstimateTotal(p.WindowLength); got < 1 {
		t.Errorf("total before = %v, want ≥1", got)
	}
	cached.AddN(1, 2, 99)
	if got := cached.EstimateTotal(p.WindowLength); got >= 100 {
		t.Errorf("hour-long TTL must serve the cached view: total = %v, want <100", got)
	}
}

// TestShardedConcurrentStress hammers a Sharded engine with concurrent
// batched writers and point/global readers; run under -race this is the
// engine's data-race certificate. Counts must come out exact.
func TestShardedConcurrentStress(t *testing.T) {
	p := shardedParams()
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 4, MergeTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			batch := make([]ecmsketch.Event, 0, 64)
			for i := 1; i <= perG; i++ {
				key := uint64(rng.Intn(512))
				batch = append(batch, ecmsketch.Event{Key: key, Tick: ecmsketch.Tick(i)})
				if len(batch) == cap(batch) {
					sh.AddBatch(batch)
					batch = batch[:0]
				}
				switch {
				case i%97 == 0:
					sh.Estimate(key, p.WindowLength)
				case i%151 == 0:
					if _, err := sh.QueryBatch(ecmsketch.QueryBatch{
						Keys: []uint64{key, key + 1}, Total: true, SelfJoin: true,
					}); err != nil {
						t.Errorf("goroutine %d: QueryBatch: %v", g, err)
					}
				case i%251 == 0:
					sh.SelfJoin(p.WindowLength)
				case i%509 == 0:
					sh.EstimateTotal(p.WindowLength)
					sh.Now()
				case i%701 == 0:
					// Serialization is a pure read of the frozen view;
					// concurrent pulls must not race.
					if b := sh.Marshal(); len(b) == 0 {
						t.Errorf("goroutine %d: empty Marshal", g)
					}
				}
			}
			sh.AddBatch(batch)
			if _, err := sh.Snapshot(); err != nil {
				t.Errorf("goroutine %d: snapshot: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := sh.Count(); got != goroutines*perG {
		t.Errorf("Count = %d, want %d", got, goroutines*perG)
	}
	// Global queries may serve a view up to MergeTTL (plus one rebuild) old;
	// wait out the TTL so the final query must rebuild and see every write.
	time.Sleep(5 * time.Millisecond)
	if got := sh.EstimateTotal(p.WindowLength); got < float64(goroutines*perG)*0.8 {
		t.Errorf("EstimateTotal = %v, want ≈%d", got, goroutines*perG)
	}
	if sh.MemoryBytes() <= 0 || sh.Width() <= 0 || sh.Depth() <= 0 {
		t.Error("degenerate engine accounting")
	}
}

// TestShardedCountStress hammers Count (and the other lock-free accounting
// reads) from dedicated readers while batched writers run. Count reads the
// per-stripe atomic caches without taking stripe locks, so under -race this
// is the certificate that the lock-free path is sound; the final sum must
// still be exact.
func TestShardedCountStress(t *testing.T) {
	p := shardedParams()
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perW = 5000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				c := sh.Count()
				if c < last {
					t.Errorf("Count went backwards: %d after %d", c, last)
					return
				}
				last = c
				sh.Now()
				sh.ViewRebuilds()
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			batch := make([]ecmsketch.Event, 0, 32)
			for i := 1; i <= perW; i++ {
				batch = append(batch, ecmsketch.Event{Key: uint64(g*perW + i), Tick: ecmsketch.Tick(i)})
				if len(batch) == cap(batch) {
					sh.AddBatch(batch)
					batch = batch[:0]
				}
			}
			sh.AddBatch(batch)
		}(g)
	}
	ww.Wait()
	close(done)
	wg.Wait()
	if got := sh.Count(); got != writers*perW {
		t.Errorf("Count = %d, want %d", got, writers*perW)
	}
}

// TestQueryBatchFrontEnds pins the QueryBatch contract on every local front
// end: answers align with the request's key order, a zero Range resolves to
// the whole window, and the combined total+self-join sweep is bit-identical
// to the separate single-query calls.
func TestQueryBatchFrontEnds(t *testing.T) {
	p := shardedParams()
	keys := []uint64{1, 2, 3, 500, 9999}
	stream := func(ing ecmsketch.Ingestor) {
		batch := make([]ecmsketch.Event, 0, 128)
		for i := 1; i <= 20000; i++ {
			batch = append(batch, ecmsketch.Event{Key: uint64(i % 700), Tick: ecmsketch.Tick(i)})
			if len(batch) == cap(batch) {
				ing.AddBatch(batch)
				batch = batch[:0]
			}
		}
		ing.AddBatch(batch)
	}

	sk, err := ecmsketch.New(p)
	if err != nil {
		t.Fatal(err)
	}
	sh1, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []ecmsketch.Engine{sk, sh1, sh} {
		stream(eng)
		res, err := eng.QueryBatch(ecmsketch.QueryBatch{Keys: keys, Total: true, SelfJoin: true})
		if err != nil {
			t.Fatalf("%T: QueryBatch: %v", eng, err)
		}
		if len(res.Estimates) != len(keys) {
			t.Fatalf("%T: %d estimates for %d keys", eng, len(res.Estimates), len(keys))
		}
		if res.Range != p.WindowLength {
			t.Errorf("%T: zero Range resolved to %d, want window %d", eng, res.Range, p.WindowLength)
		}
		if res.Now != 20000 {
			t.Errorf("%T: Now = %d, want 20000", eng, res.Now)
		}
		// The batch aggregates must match the engine's own single-query
		// answers bit for bit (for Sharded both come from the same view).
		if want := eng.EstimateTotal(p.WindowLength); res.Total != want {
			t.Errorf("%T: batch Total %v != EstimateTotal %v", eng, res.Total, want)
		}
		if want := eng.SelfJoin(p.WindowLength); res.SelfJoin != want {
			t.Errorf("%T: batch SelfJoin %v != SelfJoin %v", eng, res.SelfJoin, want)
		}
	}

	// Single-sketch batch point answers are exactly the Estimate answers.
	res, err := sk.QueryBatch(ecmsketch.QueryBatch{Keys: keys, Range: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if want := sk.Estimate(k, 5000); res.Estimates[i] != want {
			t.Errorf("key %d: batch estimate %v != Estimate %v", k, res.Estimates[i], want)
		}
	}
	// Sharded batch point answers come from the key's own stripe snapshot in
	// the view, with no merge error: on a quiesced engine they must match
	// the live stripes' direct reads bit for bit — and, with one stripe,
	// querying the engine's Snapshot directly.
	for _, eng := range []*ecmsketch.Sharded{sh1, sh} {
		shRes, err := eng.QueryBatch(ecmsketch.QueryBatch{Keys: keys, Range: 5000})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := eng.QueryDirect(ecmsketch.QueryBatch{Keys: keys, Range: 5000})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if want := direct.Estimates[i]; shRes.Estimates[i] != want {
				t.Errorf("%d stripes, key %d: sharded batch estimate %v != stripe estimate %v", eng.Shards(), k, shRes.Estimates[i], want)
			}
		}
	}
	snap, err := sh1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	shRes, err := sh1.QueryBatch(ecmsketch.QueryBatch{Keys: keys, Range: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if want := snap.Estimate(k, 5000); shRes.Estimates[i] != want {
			t.Errorf("key %d: one-stripe batch estimate %v != snapshot estimate %v", k, shRes.Estimates[i], want)
		}
	}
}

// TestShardedOneStripeConcurrentStress is TestShardedConcurrentStress's race
// certificate for a one-stripe engine, where every writer and reader
// contends for one lock.
func TestShardedOneStripeConcurrentStress(t *testing.T) {
	p := shardedParams()
	sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			batch := make([]ecmsketch.Event, 0, 64)
			for i := 1; i <= perG; i++ {
				key := uint64(rng.Intn(512))
				batch = append(batch, ecmsketch.Event{Key: key, Tick: ecmsketch.Tick(i)})
				if len(batch) == cap(batch) {
					sh.AddBatch(batch)
					batch = batch[:0]
				}
				if i%97 == 0 {
					sh.Estimate(key, p.WindowLength)
					sh.SelfJoin(p.WindowLength)
					sh.EstimateTotal(p.WindowLength)
				}
			}
			sh.AddBatch(batch)
		}(g)
	}
	wg.Wait()
	if got := sh.Count(); got != goroutines*perG {
		t.Errorf("Count = %d, want %d", got, goroutines*perG)
	}
	other, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	view, err := sh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ip, err := view.InnerProduct(other, p.WindowLength); err != nil || ip != sh.SelfJoin(p.WindowLength) {
		t.Errorf("InnerProduct against own snapshot = %v, %v; want SelfJoin %v", ip, err, sh.SelfJoin(p.WindowLength))
	}
	if got := other.EstimateTotal(p.WindowLength); got < float64(goroutines*perG)*0.8 {
		t.Errorf("snapshot EstimateTotal = %v, want ≈%d", got, goroutines*perG)
	}
	if sh.MemoryBytes() <= 0 || sh.Now() != perG {
		t.Errorf("degenerate engine state: MemoryBytes %d, Now %d", sh.MemoryBytes(), sh.Now())
	}
}

// TestEventBatchSemantics pins the Event contract shared by every
// Ingestor: slice order, multiplicity, N==0 counting as one arrival, and
// the single-event string and Advance paths.
func TestEventBatchSemantics(t *testing.T) {
	p := shardedParams()
	mk := func() []ecmsketch.Ingestor {
		sk, err := ecmsketch.New(p)
		if err != nil {
			t.Fatal(err)
		}
		sh1, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return []ecmsketch.Ingestor{sk, sh1, sh}
	}
	for _, ing := range mk() {
		ing.AddBatch([]ecmsketch.Event{
			{Key: 1, Tick: 10},          // N==0 counts once
			{Key: 1, Tick: 11, N: 4},    // multiplicity
			{Key: 2, Tick: 12, N: 1},    //
			{Key: 3, Tick: 13, N: 1000}, // heavy key
		})
		q, ok := ing.(ecmsketch.Querier)
		if !ok {
			t.Fatalf("%T does not implement Querier", ing)
		}
		if got := q.Estimate(1, p.WindowLength); got < 5 {
			t.Errorf("%T: key 1 estimate %v, want ≥5", ing, got)
		}
		if got := q.Now(); got != 13 {
			t.Errorf("%T: Now = %d, want 13", ing, got)
		}
		// String keys digest through KeyString on both sides, and Advance
		// moves the clock without an arrival.
		ing.AddString("s", 14)
		ing.AddN(ecmsketch.KeyString("s"), 15, 4)
		ing.Advance(16)
		if got := q.EstimateString("s", p.WindowLength); got < 5 {
			t.Errorf("%T: EstimateString = %v, want ≥5", ing, got)
		}
		if got := q.Now(); got != 16 {
			t.Errorf("%T: Now after Advance = %d, want 16", ing, got)
		}
	}
}
