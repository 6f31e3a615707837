package ecmsketch_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/internal/difftest"
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
	rw := p
	rw.Algorithm = ecmsketch.AlgoRW
	if _, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: rw}); err == nil {
		t.Error("randomized waves accepted (library-only)")
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

// TestShardedEquivalence feeds the identical Zipf stream to an 8-stripe
// Sharded engine and a single sketch, and holds both to a single sketch's
// bound (Theorem 1) against the exact oracle for point queries, ‖a_r‖₁ and
// F₂: a striped engine's point queries touch one stripe and its aggregates
// are stripe sums, so it pays no merge error.
func TestShardedEquivalence(t *testing.T) {
	h := difftest.New(t, shardedParams())
	sh, single := h.Sharded(0, ecmsketch.ShardedConfig{Shards: 8}, difftest.Batches), h.Sketch(0, difftest.Singles)
	h.Bounded(sh, single)
	h.Run(difftest.Gen(7, difftest.Shape{Window: 10000, Events: 50000, Ticks: 50000, Keys: 4096, Zipf: 1.2,
		Batch: 256}))
	h.Totals(t, sh, single)
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

// TestQueryBatchFrontEnds pins QueryBatch on every engine front end: the
// judge asks each the batch twice, the single-value calls and the direct
// read, all bit-identical, with Range 0 resolved to the window; a bare
// Sketch, a one-stripe engine and that engine's merged snapshot answer
// alike, and a four-stripe engine answers as its stripe snapshots.
func TestQueryBatchFrontEnds(t *testing.T) {
	h := difftest.New(t, shardedParams())
	one := h.Sharded(0, ecmsketch.ShardedConfig{Shards: 1}, difftest.Batches)
	four := h.Sharded(0, ecmsketch.ShardedConfig{Shards: 4}, difftest.Batches)
	h.Same(h.Sketch(0, difftest.Batches), one, h.Merged(one))
	h.Same(four, h.Stripes(four, func(k uint64) int { return ecmsketch.StripeOf(four.Engine(), k) }))
	h.Run(difftest.Gen(1, difftest.Shape{Window: 10000, Events: 20000, Ticks: 20000, Keys: 700, Batch: 128}))
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
