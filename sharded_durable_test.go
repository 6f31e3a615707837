package ecmsketch

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ecmsketch/internal/durable"
)

// feedDurableWorkload drives one deterministic mixed workload — batches with
// multiplicities (including the 0-means-1 case), sync/async single arrivals
// (including below-clock ticks, exercising the clamping contract), and
// explicit clock advances — so recovery is tested against every logged
// record shape.
func feedDurableWorkload(sh *Sharded, rounds int) {
	tick := uint64(100)
	var evs []Event
	for r := 0; r < rounds; r++ {
		evs = evs[:0]
		for e := 0; e < 200; e++ {
			tick += uint64(e % 3)
			evs = append(evs, Event{Key: uint64((r*131 + e*17) % 512), Tick: tick, N: uint64(e % 4)})
		}
		sh.AddBatch(evs)
		sh.AddN(uint64(r*7+3), tick+1, uint64(r%3))
		sh.AddN(uint64(r), tick-50, 1) // below the engine clock: must clamp
		if r%3 == 2 {
			tick += 40
			sh.Advance(tick)
		}
	}
}

// settleAndCompare settles both engines to a common clock and requires every
// stripe to be byte-identical, version vectors included — the recovery
// contract: a restart reproduces exactly the state a never-crashed engine
// holds after the same applied prefix.
func settleAndCompare(t *testing.T, got, want *Sharded) {
	t.Helper()
	if len(got.shards) != len(want.shards) {
		t.Fatalf("stripe count: %d vs %d", len(got.shards), len(want.shards))
	}
	settle := got.Now()
	if n := want.Now(); n > settle {
		settle = n
	}
	got.Advance(settle)
	want.Advance(settle)
	got.Flush()
	want.Flush()
	for i := range got.shards {
		g, w := &got.shards[i], &want.shards[i]
		g.mu.Lock()
		gEnc := g.sk.Marshal()
		gVer, gVers := g.sk.VersionVector()
		g.mu.Unlock()
		w.mu.Lock()
		wEnc := w.sk.Marshal()
		wVer, wVers := w.sk.VersionVector()
		w.mu.Unlock()
		if !bytes.Equal(gEnc, wEnc) {
			t.Fatalf("stripe %d: recovered arena differs (%d vs %d bytes)", i, len(gEnc), len(wEnc))
		}
		if gVer != wVer {
			t.Fatalf("stripe %d: version %d want %d", i, gVer, wVer)
		}
		if len(gVers) != len(wVers) {
			t.Fatalf("stripe %d: version vector length %d want %d", i, len(gVers), len(wVers))
		}
		for j := range gVers {
			if gVers[j] != wVers[j] {
				t.Fatalf("stripe %d cell %d: version %d want %d", i, j, gVers[j], wVers[j])
			}
		}
	}
	if gc, wc := got.Count(), want.Count(); gc != wc {
		t.Fatalf("count: %d want %d", gc, wc)
	}
}

// TestDurableRecoverByteIdentical is the crash matrix: for every counter
// algorithm, sync and async ingest, and one- and multi-stripe layouts, an
// engine killed abruptly (after a durability barrier) recovers from
// snapshot + WAL replay to state byte-identical to a reference engine fed
// the same prefix — same epoch, same arenas, same version vectors.
func TestDurableRecoverByteIdentical(t *testing.T) {
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW} {
		for _, async := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v_async=%v_shards=%d", algo, async, shards), func(t *testing.T) {
					p := parallelShardedParams(algo)
					store := NewMemStore()
					mk := func(dc *DurabilityConfig) *Sharded {
						sh, err := NewSharded(ShardedConfig{Params: p, Shards: shards, Async: async, Durability: dc})
						if err != nil {
							t.Fatalf("NewSharded: %v", err)
						}
						return sh
					}
					a := mk(&DurabilityConfig{Store: store})
					ref := mk(nil)
					defer ref.Close()

					feedDurableWorkload(a, 4)
					feedDurableWorkload(ref, 4)
					// A mid-stream checkpoint rotates the WAL, so recovery
					// spans snapshot + the successor segment.
					if err := a.Checkpoint(); err != nil {
						t.Fatalf("Checkpoint: %v", err)
					}
					feedDurableWorkload(a, 3)
					feedDurableWorkload(ref, 3)
					a.Flush() // durability barrier: everything above is applied and fsynced

					epoch := a.epoch
					if err := a.CloseAbrupt(); err != nil {
						t.Fatalf("CloseAbrupt: %v", err)
					}

					b := mk(&DurabilityConfig{Store: store})
					defer b.Close()
					st := b.DurabilityStats()
					if !st.Recovered {
						t.Fatal("recovery did not restore prior state")
					}
					if st.ReplayedRecords == 0 {
						t.Fatal("expected WAL records to replay after abrupt close")
					}
					if b.epoch != epoch {
						t.Fatalf("epoch changed across restart: %x want %x", b.epoch, epoch)
					}
					settleAndCompare(t, b, ref)
				})
			}
		}
	}
}

// TestDurableCursorSurvivesRestart pins the point of the whole subsystem: a
// puller's delta cursor taken before a restart is still recognized after
// it — the engine serves an incremental delta, not a re-baselining full
// snapshot, and the delta reconstructs the exact merged state.
func TestDurableCursorSurvivesRestart(t *testing.T) {
	for _, clean := range []bool{true, false} {
		t.Run(fmt.Sprintf("clean=%v", clean), func(t *testing.T) {
			p := parallelShardedParams(AlgoEH)
			store := NewMemStore()
			a, err := NewSharded(ShardedConfig{Params: p, Shards: 4,
				Durability: &DurabilityConfig{Store: store}})
			if err != nil {
				t.Fatal(err)
			}
			feedDurableWorkload(a, 3)

			var puller DeltaState
			payload, cur, full, err := a.DeltaSnapshot(puller.Cursor())
			if err != nil || !full {
				t.Fatalf("bootstrap pull: full=%v err=%v", full, err)
			}
			if err := puller.Apply(payload, cur, full); err != nil {
				t.Fatalf("apply baseline: %v", err)
			}

			feedDurableWorkload(a, 2)
			if clean {
				if err := a.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			} else {
				a.Flush()
				a.CloseAbrupt()
			}

			b, err := NewSharded(ShardedConfig{Params: p, Shards: 4,
				Durability: &DurabilityConfig{Store: store}})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			st := b.DurabilityStats()
			if !st.Recovered {
				t.Fatal("restart did not recover")
			}
			if clean && st.ReplayedRecords != 0 {
				t.Fatalf("clean shutdown replayed %d records; the final checkpoint should cover everything", st.ReplayedRecords)
			}

			payload, cur, full, err = b.DeltaSnapshot(puller.Cursor())
			if err != nil {
				t.Fatalf("post-restart pull: %v", err)
			}
			if full {
				t.Fatal("post-restart pull re-baselined: the pre-restart cursor was not honored")
			}
			if err := puller.Apply(payload, cur, full); err != nil {
				t.Fatalf("apply post-restart delta: %v", err)
			}
			got, err := puller.Materialize()
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			want, err := b.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatal("delta applied across restart diverged from the engine's merged state")
			}
		})
	}
}

// TestDurableMidStreamCrash kills an async engine with the pipeline full and
// nothing flushed: recovery must land on a consistent applied prefix (never
// corrupt, never over-counting), keep the epoch, and still serve a
// pre-crash cursor a cleanly applicable response.
func TestDurableMidStreamCrash(t *testing.T) {
	p := parallelShardedParams(AlgoEH)
	store := NewMemStore()
	a, err := NewSharded(ShardedConfig{Params: p, Shards: 4, Async: true,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	var puller DeltaState
	payload, cur, full, err := a.DeltaSnapshot(puller.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if err := puller.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}

	var fed uint64
	evs := make([]Event, 0, 64)
	for r := 0; r < 200; r++ {
		evs = evs[:0]
		for e := 0; e < 64; e++ {
			evs = append(evs, Event{Key: uint64(r*64 + e), Tick: uint64(r + 1), N: 1})
			fed++
		}
		a.AddBatch(evs)
	}
	epoch := a.epoch
	a.CloseAbrupt() // no flush: pending pipeline work is allowed to vanish

	b, err := NewSharded(ShardedConfig{Params: p, Shards: 4, Async: true,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.epoch != epoch {
		t.Fatalf("epoch changed: %x want %x", b.epoch, epoch)
	}
	if got := b.Count(); got > fed {
		t.Fatalf("recovered count %d exceeds fed %d", got, fed)
	}
	// Stripe count caches must agree with the recovered sketches.
	var sum uint64
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		if c := s.sk.Count(); c != s.count.Load() {
			s.mu.Unlock()
			t.Fatalf("stripe %d count cache %d, sketch %d", i, s.count.Load(), c)
		} else {
			sum += c
		}
		s.mu.Unlock()
	}
	if sum != b.Count() {
		t.Fatalf("count sum %d vs Count() %d", sum, b.Count())
	}

	payload, cur, full, err = b.DeltaSnapshot(puller.Cursor())
	if err != nil {
		t.Fatalf("post-crash pull: %v", err)
	}
	if full {
		t.Fatal("pre-crash cursor was not honored after mid-stream crash")
	}
	if err := puller.Apply(payload, cur, full); err != nil {
		t.Fatalf("apply: %v", err)
	}
	got, err := puller.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("post-crash delta diverged from merged state")
	}
}

// TestDurableTornWALTail garbages the tail of the active on-disk segment —
// the torn-write crash shape — and requires recovery to truncate it cleanly
// and match a reference engine fed the intact prefix.
func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	p := parallelShardedParams(AlgoDW)
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSharded(ShardedConfig{Params: p, Shards: 2,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSharded(ShardedConfig{Params: p, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	feedDurableWorkload(a, 3)
	feedDurableWorkload(ref, 3)
	a.Flush()
	epoch := a.epoch
	a.CloseAbrupt()

	// Tear the tail: half a frame header, then garbage.
	f, err := os.OpenFile(filepath.Join(dir, "wal-1"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x99}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, err := NewSharded(ShardedConfig{Params: p, Shards: 2,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.DurabilityStats().Recovered {
		t.Fatal("torn tail must not discard the intact prefix")
	}
	if b.epoch != epoch {
		t.Fatalf("epoch changed: %x want %x", b.epoch, epoch)
	}
	settleAndCompare(t, b, ref)
}

// TestDurableWALGapDiscardsWholeRestore forces the failure that arrives
// latest in recovery: a well-formed WAL record, behind records that replay
// cleanly, whose version does not continue the restored state. Nothing of
// the half-replayed restore may survive — the engine starts a fresh epoch
// over stripes byte-identical to a brand-new engine's.
func TestDurableWALGapDiscardsWholeRestore(t *testing.T) {
	p := parallelShardedParams(AlgoRW)
	store := NewMemStore()
	mk := func(dc *DurabilityConfig) *Sharded {
		sh, err := NewSharded(ShardedConfig{Params: p, Shards: 2, Durability: dc})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	a := mk(&DurabilityConfig{Store: store})
	feedDurableWorkload(a, 3)
	a.Flush()
	epoch, ver := a.epoch, a.shards[0].sk.DeltaVersion()
	a.CloseAbrupt()

	log, err := store.OpenLog(durWALName(1))
	if err != nil {
		t.Fatal(err)
	}
	forged := durable.AppendFrame(nil, &durable.Record{
		Kind: durable.RecordBatch, Part: 0, Tick: a.Now(), Ver: ver + 1000, Events: []Event{{Key: 1, Tick: a.Now()}},
	})
	if err := log.Append(forged); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	log.Close()

	b := mk(&DurabilityConfig{Store: store})
	defer b.Close()
	if st := b.DurabilityStats(); st.Recovered || st.ReplayedRecords == 0 {
		t.Fatalf("want a restore abandoned after replaying records, got %+v", st)
	}
	if b.epoch == epoch {
		t.Fatal("abandoned restore must mint a fresh epoch")
	}
	fresh := mk(nil)
	defer fresh.Close()
	requireSameStripes(t, "abandoned restore", b, fresh)
}

// TestDurableCorruptSnapshotDiscardsToFreshEpoch flips one byte of the
// snapshot blob: recovery must refuse the whole durable state and start a
// fresh epoch, so a stale cursor gets a full re-baseline — never a delta
// against state that cannot be trusted.
func TestDurableCorruptSnapshotDiscardsToFreshEpoch(t *testing.T) {
	dir := t.TempDir()
	p := parallelShardedParams(AlgoEH)
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSharded(ShardedConfig{Params: p, Shards: 2,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	feedDurableWorkload(a, 2)
	var puller DeltaState
	payload, cur, full, err := a.DeltaSnapshot(puller.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if err := puller.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	epoch := a.epoch
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	blobPath := filepath.Join(dir, "snapshot")
	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(blobPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := NewSharded(ShardedConfig{Params: p, Shards: 2,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	st := b.DurabilityStats()
	if st.Recovered {
		t.Fatal("corrupt snapshot must not recover")
	}
	if b.epoch == epoch {
		t.Fatal("corrupt snapshot must mint a fresh epoch")
	}
	if b.Count() != 0 {
		t.Fatalf("fresh engine has count %d", b.Count())
	}
	_, _, full, err = b.DeltaSnapshot(puller.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if !full {
		t.Fatal("stale cursor against a fresh epoch must re-baseline")
	}
}

// TestDurableForeignStateDiscarded reopens a store written by a differently
// configured engine: the fingerprint mismatch must discard it (fresh epoch,
// empty state) rather than reinterpret arenas of the wrong shape.
func TestDurableForeignStateDiscarded(t *testing.T) {
	store := NewMemStore()
	p := parallelShardedParams(AlgoEH)
	a, err := NewSharded(ShardedConfig{Params: p, Shards: 2,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	feedDurableWorkload(a, 2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := p
	p2.Width = 512 // different arena shape, different fingerprint
	b, err := NewSharded(ShardedConfig{Params: p2, Shards: 2,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.DurabilityStats().Recovered {
		t.Fatal("foreign state must be discarded")
	}
	if b.Count() != 0 {
		t.Fatalf("foreign recovery left count %d", b.Count())
	}
}

// TestDurableStatsBlock sanity-checks the observability fields /v1/stats
// exposes: disabled engines report zero-values, durable engines report the
// checkpoint and WAL counters monitoring depends on.
func TestDurableStatsBlock(t *testing.T) {
	plain, err := NewSharded(ShardedConfig{Params: parallelShardedParams(AlgoEH), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if st := plain.DurabilityStats(); st.Enabled || st.WALRecords != 0 {
		t.Fatalf("plain engine reports durability: %+v", st)
	}
	if err := plain.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a plain engine must error")
	}

	sh, err := NewSharded(ShardedConfig{Params: parallelShardedParams(AlgoEH), Shards: 2,
		Durability: &DurabilityConfig{Store: NewMemStore()}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	feedDurableWorkload(sh, 1)
	sh.Flush()
	st := sh.DurabilityStats()
	if !st.Enabled || st.Epoch == 0 || st.Generation != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.WALRecords == 0 || st.WALBytes == 0 {
		t.Fatalf("ingest logged nothing: %+v", st)
	}
	if st.LastFsyncNs < 0 {
		t.Fatalf("bad fsync latency: %+v", st)
	}
	if err := sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = sh.DurabilityStats()
	if st.Generation != 2 {
		t.Fatalf("checkpoint did not rotate: %+v", st)
	}
	if st.WALRecords != 0 {
		t.Fatalf("rotation did not reset segment counters: %+v", st)
	}
	if st.LastSnapshotTick == 0 || st.LastSnapshotUnixMs == 0 {
		t.Fatalf("checkpoint left snapshot stamps zero: %+v", st)
	}
}

// fsyncStore wraps a DurableStore so every log it opens records, at each
// Sync, how many bytes had been appended to it — and fails that Sync while
// failSync is set.
type fsyncStore struct {
	DurableStore
	mu       sync.Mutex
	logs     []*fsyncLog
	failSync bool
}

type fsyncLog struct {
	DurableLog
	st       *fsyncStore
	appended int
	syncs    []int // appended at each successful Sync
}

func (s *fsyncStore) OpenLog(name string) (DurableLog, error) {
	l, err := s.DurableStore.OpenLog(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fl := &fsyncLog{DurableLog: l, st: s}
	s.logs = append(s.logs, fl)
	return fl, nil
}

func (l *fsyncLog) Append(p []byte) error {
	l.st.mu.Lock()
	l.appended += len(p)
	l.st.mu.Unlock()
	return l.DurableLog.Append(p)
}

func (l *fsyncLog) Sync() error {
	l.st.mu.Lock()
	defer l.st.mu.Unlock()
	if l.st.failSync {
		return errors.New("injected fsync failure")
	}
	l.syncs = append(l.syncs, l.appended)
	return l.DurableLog.Sync()
}

// active reports the newest log's appended bytes and the bytes its last
// successful Sync covered.
func (s *fsyncStore) active() (appended, synced int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logs[len(s.logs)-1]
	if n := len(l.syncs); n > 0 {
		synced = l.syncs[n-1]
	}
	return l.appended, synced
}

func (s *fsyncStore) setFailSync(fail bool) {
	s.mu.Lock()
	s.failSync = fail
	s.mu.Unlock()
}

// TestDurableFsyncContract pins what DurabilityConfig.SyncInterval promises
// against the Log calls the engine actually makes: at 0 every AddBatch's
// records are fsynced before it returns; at a long interval Flush returns
// only after a Sync covering every byte appended before the call; and a
// failing Sync is counted in DurabilityStats().Errors while ingest and
// answers carry on.
func TestDurableFsyncContract(t *testing.T) {
	batch := func(tick uint64) []Event {
		evs := make([]Event, 32)
		for i := range evs {
			evs[i] = Event{Key: uint64(i % 5), Tick: tick + uint64(i), N: 1}
		}
		return evs
	}
	open := func(t *testing.T, syncEvery time.Duration) (*Sharded, *fsyncStore) {
		t.Helper()
		st := &fsyncStore{DurableStore: NewMemStore()}
		sh, err := NewSharded(ShardedConfig{Params: parallelShardedParams(AlgoEH), Shards: 2,
			Durability: &DurabilityConfig{Store: st, SyncInterval: syncEvery}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		return sh, st
	}

	t.Run("every append", func(t *testing.T) {
		sh, st := open(t, 0)
		for r := uint64(0); r < 8; r++ {
			before, _ := st.active()
			sh.AddBatch(batch(100 + 64*r))
			appended, synced := st.active()
			if appended == before {
				t.Fatalf("batch %d logged nothing", r)
			}
			if synced != appended {
				t.Fatalf("batch %d returned with %d of %d appended bytes synced", r, synced, appended)
			}
		}
	})

	t.Run("flush covers every prior append", func(t *testing.T) {
		sh, st := open(t, time.Hour)
		for r := uint64(0); r < 8; r++ {
			sh.AddBatch(batch(100 + 64*r))
		}
		appended, synced := st.active()
		if synced >= appended {
			t.Fatalf("an hour-long interval synced %d of %d bytes before Flush", synced, appended)
		}
		sh.Flush()
		if _, synced := st.active(); synced < appended {
			t.Fatalf("Flush returned with %d of %d appended bytes synced", synced, appended)
		}
	})

	t.Run("failing sync is counted, ingest carries on", func(t *testing.T) {
		sh, st := open(t, 0)
		sh.AddBatch(batch(100))
		if errs := sh.DurabilityStats().Errors; errs != 0 {
			t.Fatalf("healthy store reported %d errors", errs)
		}
		st.setFailSync(true)
		sh.AddBatch(batch(200))
		sh.Flush()
		if errs := sh.DurabilityStats().Errors; errs == 0 {
			t.Fatal("a failing Sync was not counted in DurabilityStats().Errors")
		}
		if got := sh.Count(); got != 64 {
			t.Fatalf("count %d after a failing Sync, want 64", got)
		}
		if est := sh.Estimate(0, 1<<20); est < 13 {
			t.Fatalf("estimate of key 0 is %v, want at least its 13 arrivals", est)
		}
		st.setFailSync(false)
		sh.AddBatch(batch(300))
		if appended, synced := st.active(); synced != appended {
			t.Fatalf("after recovery %d of %d appended bytes synced", synced, appended)
		}
		if got := sh.Count(); got != 96 {
			t.Fatalf("count %d, want 96", got)
		}
	})
}
