package ecmsketch

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func asyncTestParams() Params {
	return Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1000, Seed: 9}
}

// TestShardedAsyncEquivalence: an async engine after Flush holds exactly
// the state a synchronous engine holds after the same single-writer call
// sequence — per-stripe application order is the call order, so the stripe
// sketches (and therefore the merged view) are byte-identical.
func TestShardedAsyncEquivalence(t *testing.T) {
	syncEng, err := NewSharded(ShardedConfig{Params: asyncTestParams(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	asyncEng, err := NewSharded(ShardedConfig{Params: asyncTestParams(), Shards: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer asyncEng.Close()

	rng := rand.New(rand.NewSource(7))
	tick := Tick(1)
	for round := 0; round < 60; round++ {
		switch round % 5 {
		case 3:
			tick += Tick(rng.Intn(300))
			syncEng.Advance(tick)
			asyncEng.Advance(tick)
		case 4:
			k := rng.Uint64() % 64
			syncEng.AddN(k, tick, 3)
			asyncEng.AddN(k, tick, 3)
		default:
			evs := make([]Event, 1+rng.Intn(100))
			for i := range evs {
				if rng.Intn(3) == 0 {
					tick++
				}
				evs[i] = Event{Key: rng.Uint64() % 64, Tick: tick, N: uint64(1 + rng.Intn(4))}
			}
			syncEng.AddBatch(evs)
			asyncEng.AddBatch(evs)
		}
	}
	asyncEng.Flush()
	if sc, ac := syncEng.Count(), asyncEng.Count(); sc != ac {
		t.Fatalf("counts diverged: sync %d async %d", sc, ac)
	}
	if !bytes.Equal(syncEng.Marshal(), asyncEng.Marshal()) {
		t.Fatal("merged views diverged between sync and flushed async ingest")
	}
	for k := uint64(0); k < 64; k++ {
		if se, ae := syncEng.Estimate(k, 1000), asyncEng.Estimate(k, 1000); se != ae {
			t.Fatalf("key %d: sync estimate %g, async %g", k, se, ae)
		}
	}
}

// TestShardedAsyncFlushBarrier: everything enqueued before Flush is
// visible to reads after it.
func TestShardedAsyncFlushBarrier(t *testing.T) {
	eng, err := NewSharded(ShardedConfig{Params: asyncTestParams(), Shards: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var total uint64
	for round := 0; round < 50; round++ {
		evs := make([]Event, 40)
		for i := range evs {
			evs[i] = Event{Key: uint64(i), Tick: Tick(round + 1), N: 1}
		}
		eng.AddBatch(evs)
		total += uint64(len(evs))
	}
	eng.Flush()
	if got := eng.Count(); got != total {
		t.Fatalf("post-flush count %d, want %d", got, total)
	}
}

// TestShardedAsyncCloseReverts: Close drains the queues and subsequent
// writes apply synchronously — the engine stays usable.
func TestShardedAsyncCloseReverts(t *testing.T) {
	eng, err := NewSharded(ShardedConfig{Params: asyncTestParams(), Shards: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(1, 5)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Count(); got != 1 {
		t.Fatalf("close did not drain: count %d", got)
	}
	eng.Add(2, 6) // synchronous now: visible without Flush
	if got := eng.Count(); got != 2 {
		t.Fatalf("post-close write not applied synchronously: count %d", got)
	}
	eng.Flush() // no-op, must not hang
	if err := eng.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// TestShardedCloseIdempotent pins Close semantics on the engine with the
// most to tear down — async owners, both durable loops, a WAL: repeated
// closes (of either kind, in either order) are no-ops, a closed engine keeps
// answering and accepting writes, and an engine with nothing to stop needs
// no Close but tolerates one.
func TestShardedCloseIdempotent(t *testing.T) {
	for _, abruptFirst := range []bool{false, true} {
		sh, err := NewSharded(ShardedConfig{
			Params: asyncTestParams(), Shards: 2, Async: true,
			Durability: &DurabilityConfig{Store: NewMemStore(), SnapshotInterval: time.Millisecond, SyncInterval: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		sh.Add(1, 10)
		first, second := sh.Close, sh.CloseAbrupt
		if abruptFirst {
			first, second = second, first
		}
		for _, c := range []func() error{first, first, second} {
			if err := c(); err != nil {
				t.Fatal(err)
			}
		}
		sh.Add(1, 11)
		if got := sh.Estimate(1, 1000); got != 2 {
			t.Errorf("abruptFirst=%v: estimate after Close = %v, want 2", abruptFirst, got)
		}
	}

	plain, err := NewSharded(ShardedConfig{Params: asyncTestParams()})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Errorf("Close on an engine with no background work: %v", err)
	}
}

// TestShardedAsyncStress exercises the full concurrent surface of an async
// engine at once — writers, point readers, global-view readers, delta
// pullers and a standing-query registry fed from the owner goroutines —
// and then checks final consistency after the last Flush. CI runs this
// under -race; the assertions here are the non-timing ones.
func TestShardedAsyncStress(t *testing.T) {
	eng, err := NewSharded(ShardedConfig{Params: asyncTestParams(), Shards: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	reg := NewStandingRegistry(StandingConfig{Window: 1000})
	reg.Bind(eng)
	eng.SetNotifier(reg)
	defer eng.SetNotifier(nil)
	if _, err := reg.Subscribe([]StandingQuery{
		{Kind: StandingThreshold, Key: 3, Value: 50},
		{Kind: StandingTopK, K: 3, Keys: []uint64{1, 2, 3, 4, 5}},
	}); err != nil {
		t.Fatal(err)
	}

	const writers, rounds, batch = 4, 120, 64
	var wg sync.WaitGroup
	var wrote [writers]uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				evs := make([]Event, batch)
				for i := range evs {
					evs[i] = Event{Key: rng.Uint64() % 128, Tick: Tick(r + 1), N: 1}
				}
				eng.AddBatch(evs)
				wrote[w] += batch
				if r%16 == 9 {
					eng.Advance(Tick(r + 1))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			var st DeltaState
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch {
				case g == 0 && i%3 == 0:
					payload, cur, full, err := eng.DeltaSnapshot(st.Cursor())
					if err != nil {
						t.Errorf("delta pull: %v", err)
						return
					}
					if err := st.Apply(payload, cur, full); err != nil {
						t.Errorf("delta apply: %v", err)
						return
					}
				case i%2 == 0:
					eng.Estimate(uint64(i%128), 1000)
				default:
					if _, err := eng.QueryBatch(QueryBatch{Keys: []uint64{1, 2, 3}, Range: 1000}); err != nil {
						t.Errorf("query batch: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	eng.Flush()

	var total uint64
	for _, n := range wrote {
		total += n
	}
	if got := eng.Count(); got != total {
		t.Fatalf("final count %d, want %d", got, total)
	}
	// A final pull must reconstruct the settled engine byte-identically.
	var st DeltaState
	payload, cur, full, err := eng.DeltaSnapshot(st.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	got, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), eng.Marshal()) {
		t.Fatal("delta reconstruction diverged from async engine")
	}
}
