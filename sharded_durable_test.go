package ecmsketch_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/internal/difftest"
	"ecmsketch/internal/durable"
)

type (
	Event            = ecmsketch.Event
	DurableStore     = ecmsketch.DurableStore
	DurableLog       = ecmsketch.DurableLog
	DurabilityConfig = ecmsketch.DurabilityConfig
	ShardedConfig    = ecmsketch.ShardedConfig
)

var (
	AlgoEH, AlgoDW = ecmsketch.AlgoEH, ecmsketch.AlgoDW
	NewSharded     = ecmsketch.NewSharded
	NewMemStore    = ecmsketch.NewMemStore
	NewFileStore   = ecmsketch.NewFileStore
)

// durableLog is a write-rule log at parallelShardedParams' window.
func durableLog(seed int64) difftest.Log { return rulesLog(seed, 4096) }

// TestDurableRecoverByteIdentical is the crash matrix: for EH and DW, sync
// and async ingest, and one- and multi-stripe layouts, an engine that
// checkpoints at the log's Flush ops and crashes abruptly (after a
// durability barrier) at its crash points recovers from snapshot + WAL
// replay to the state of an engine that never crashed — same epoch, same
// stripes, same versions, same answers.
func TestDurableRecoverByteIdentical(t *testing.T) {
	for _, algo := range []ecmsketch.Algorithm{AlgoEH, AlgoDW} {
		for _, async := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v_async=%v_shards=%d", algo, async, shards), func(t *testing.T) {
					h := difftest.New(t, parallelShardedParams(algo))
					cfg := ShardedConfig{Shards: shards, Async: async}
					h.Same(h.Sharded(0, cfg, difftest.Batches), h.Durable(0, cfg, difftest.Batches, difftest.Abrupt))
					h.Run(durableLog(int64(shards)))
				})
			}
		}
	}
}

// TestDurableCursorSurvivesRestart pins the point of the whole subsystem: a
// puller's delta cursor taken before a restart, clean or abrupt, is still
// recognized after it — the engine serves deltas, not a re-baselining full
// snapshot, and the deltas reconstruct the engine's merged state.
func TestDurableCursorSurvivesRestart(t *testing.T) {
	for _, stop := range []difftest.Stop{difftest.Abrupt, difftest.Clean} {
		t.Run(fmt.Sprintf("clean=%v", stop == difftest.Clean), func(t *testing.T) {
			h := difftest.New(t, parallelShardedParams(AlgoEH))
			dur := h.Durable(0, ShardedConfig{Shards: 4}, difftest.Batches, stop)
			h.Same(h.Merged(dur), h.Puller(dur))
			h.Run(durableLog(2))
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
	var puller ecmsketch.DeltaState
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
	epoch := a.DurabilityStats().Epoch
	a.CloseAbrupt() // no flush: pending pipeline work is allowed to vanish

	b, err := NewSharded(ShardedConfig{Params: p, Shards: 4, Async: true,
		Durability: &DurabilityConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.DurabilityStats().Epoch; got != epoch {
		t.Fatalf("epoch changed: %x want %x", got, epoch)
	}
	if got := b.Count(); got > fed {
		t.Fatalf("recovered count %d exceeds fed %d", got, fed)
	}
	// Stripe count caches must agree with the recovered sketches.
	var sum uint64
	cached, actual := ecmsketch.StripeCounts(b)
	for i := range cached {
		if cached[i] != actual[i] {
			t.Fatalf("stripe %d count cache %d, sketch %d", i, cached[i], actual[i])
		}
		sum += actual[i]
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
	if string(got.Marshal()) != string(b.Marshal()) {
		t.Fatal("post-crash delta diverged from merged state")
	}
}

// newDurable builds a two-stripe engine over parallelShardedParams(algo),
// durable over store when store is not nil.
func newDurable(t *testing.T, algo ecmsketch.Algorithm, store DurableStore) *ecmsketch.Sharded {
	t.Helper()
	cfg := ShardedConfig{Params: parallelShardedParams(algo), Shards: 2}
	if store != nil {
		cfg.Durability = &DurabilityConfig{Store: store}
	}
	sh, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestDurableTornWALTail garbages the tail of the active on-disk segment —
// the torn-write crash shape — and requires recovery to truncate it cleanly
// and match a reference engine fed the intact prefix.
func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, ref := newDurable(t, AlgoDW, store), newDurable(t, AlgoDW, nil)
	defer ref.Close()
	difftest.Feed(a, durableLog(3))
	difftest.Feed(ref, durableLog(3))
	a.Flush()
	epoch := a.DurabilityStats().Epoch
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

	b := newDurable(t, AlgoDW, store)
	defer b.Close()
	if st := b.DurabilityStats(); !st.Recovered || st.Epoch != epoch {
		t.Fatalf("torn tail must not discard the intact prefix: %+v, epoch %x", st, epoch)
	}
	difftest.SameState(t, "recovered", b, ref)
}

// TestDurableWALGapDiscardsWholeRestore forces the failure that arrives
// latest in recovery: a well-formed WAL record, behind records that replay
// cleanly, whose version does not continue the restored state. Nothing of
// the half-replayed restore may survive — the engine starts a fresh epoch
// over stripes byte-identical to a brand-new engine's.
func TestDurableWALGapDiscardsWholeRestore(t *testing.T) {
	store := NewMemStore()
	a := newDurable(t, AlgoDW, store)
	difftest.Feed(a, durableLog(3))
	a.Flush()
	_, cur, _, err := a.DeltaSnapshot(ecmsketch.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := a.DurabilityStats().Epoch
	a.CloseAbrupt()

	log, err := store.OpenLog("wal-1")
	if err != nil {
		t.Fatal(err)
	}
	forged := durable.AppendFrame(nil, &durable.Record{
		Kind: durable.RecordBatch, Part: 0, Tick: a.Now(), Ver: cur.Vers[0] + 1000, Events: []Event{{Key: 1, Tick: a.Now()}},
	})
	if err := log.Append(forged); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	log.Close()

	b := newDurable(t, AlgoDW, store)
	defer b.Close()
	if st := b.DurabilityStats(); st.Recovered || st.ReplayedRecords == 0 {
		t.Fatalf("want a restore abandoned after replaying records, got %+v", st)
	}
	if b.DurabilityStats().Epoch == epoch {
		t.Fatal("abandoned restore must mint a fresh epoch")
	}
	fresh := newDurable(t, AlgoDW, nil)
	defer fresh.Close()
	difftest.SameState(t, "abandoned restore", b, fresh)
}

// TestDurableCorruptSnapshotDiscardsToFreshEpoch flips one byte of the
// snapshot blob: recovery must refuse the whole durable state and start a
// fresh epoch, so a stale cursor gets a full re-baseline — never a delta
// against state that cannot be trusted.
func TestDurableCorruptSnapshotDiscardsToFreshEpoch(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := newDurable(t, AlgoEH, store)
	difftest.Feed(a, durableLog(2))
	var puller ecmsketch.DeltaState
	payload, cur, full, err := a.DeltaSnapshot(puller.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if err := puller.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	epoch := a.DurabilityStats().Epoch
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

	b := newDurable(t, AlgoEH, store)
	defer b.Close()
	st := b.DurabilityStats()
	if st.Recovered {
		t.Fatal("corrupt snapshot must not recover")
	}
	if st.Epoch == epoch {
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
	a := newDurable(t, AlgoEH, store)
	difftest.Feed(a, durableLog(2))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := parallelShardedParams(AlgoEH)
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
	plain := newDurable(t, AlgoEH, nil)
	defer plain.Close()
	if st := plain.DurabilityStats(); st.Enabled || st.WALRecords != 0 {
		t.Fatalf("plain engine reports durability: %+v", st)
	}
	if err := plain.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a plain engine must error")
	}

	sh := newDurable(t, AlgoEH, NewMemStore())
	defer sh.Close()
	difftest.Feed(sh, difftest.Gen(1, difftest.Shape{Window: 4096, Events: 200, Ticks: 200, Keys: 512, Batch: 50}))
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
	open := func(t *testing.T, syncEvery time.Duration) (*ecmsketch.Sharded, *fsyncStore) {
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

// failStore fails every blob Save while failSave is set and counts the
// closes of every log it opened.
type failStore struct {
	DurableStore
	mu       sync.Mutex
	failSave bool
	closes   int
}

type closeLog struct {
	DurableLog
	st *failStore
}

func (s *failStore) Save(name string, blob []byte) error {
	s.mu.Lock()
	fail := s.failSave
	s.mu.Unlock()
	if fail {
		return errors.New("injected save failure")
	}
	return s.DurableStore.Save(name, blob)
}

func (s *failStore) OpenLog(name string) (DurableLog, error) {
	l, err := s.DurableStore.OpenLog(name)
	if err != nil {
		return nil, err
	}
	return &closeLog{DurableLog: l, st: s}, nil
}

func (l *closeLog) Close() error {
	l.st.mu.Lock()
	l.st.closes++
	l.st.mu.Unlock()
	return l.DurableLog.Close()
}

func (s *failStore) set(fail bool) (closes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failSave = fail
	return s.closes
}

// TestDurableFailedCheckpointsKeepAcknowledgedWrites pins what a checkpoint
// whose blob fails to save does: it keeps the WAL, a second failure does
// not rotate past what recovery replays, no acknowledged write is lost,
// and the next successful checkpoint closes and deletes the sealed
// segment. A failed startup checkpoint closes the segment it opened.
func TestDurableFailedCheckpointsKeepAcknowledgedWrites(t *testing.T) {
	cfg := func(st DurableStore) ShardedConfig {
		return ShardedConfig{Params: parallelShardedParams(AlgoEH), Shards: 2, Durability: &DurabilityConfig{Store: st}}
	}
	st := &failStore{DurableStore: NewMemStore(), failSave: true}
	if _, err := NewSharded(cfg(st)); err == nil {
		t.Fatal("a failing startup checkpoint built an engine")
	}
	if closes := st.set(false); closes != 1 {
		t.Fatalf("failed startup closed its segment %d times, want 1", closes)
	}

	for _, retry := range []bool{false, true} {
		st := &failStore{DurableStore: NewMemStore()}
		sh, err := NewSharded(cfg(st))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 3; i++ {
			sh.Add(i, i)
		}
		st.set(true)
		for i := 0; i < 2; i++ {
			if err := sh.Checkpoint(); err == nil {
				t.Fatal("Checkpoint over a failing store reported success")
			}
		}
		for i := uint64(4); i <= 6; i++ {
			sh.Add(i, i)
		}
		if retry {
			closes := st.set(false)
			if err := sh.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got := st.set(false); got != closes+1 {
				t.Fatalf("the successful retry closed %d segments, want the sealed one", got-closes)
			}
			log, err := st.OpenLog("wal-1")
			if err != nil {
				t.Fatal(err)
			}
			if recs, err := durable.Replay(log); err != nil || len(recs) != 0 {
				t.Fatalf("sealed segment not deleted: %d records, %v", len(recs), err)
			}
			log.Close()
		}
		sh.Flush()
		sh.CloseAbrupt()
		st.set(false)
		b, err := NewSharded(cfg(st))
		if err != nil {
			t.Fatal(err)
		}
		if s := b.DurabilityStats(); !s.Recovered || b.Count() != 6 {
			t.Errorf("retry=%v: recovered=%v with count %d, want all 6 acknowledged arrivals", retry, s.Recovered, b.Count())
		}
		b.Close()
	}
}

// TestDurableRecoversSizedCheckpoint recovers a data directory written by a
// build whose encoders still wrote the sized EH cell form (tag 0xE1): a
// checkpoint of 3,000 arrivals over two stripes plus a WAL segment of 200
// more, left by an abrupt close. The state must recover — same epoch, WAL
// replayed — rather than be discarded as a fresh epoch, and answer as an
// engine fed the same stream does, byte for byte once re-encoded.
func TestDurableRecoversSizedCheckpoint(t *testing.T) {
	const epoch = 0xa866cbf4332e9663 // the writer's
	dir := t.TempDir()
	for _, name := range []string{"snapshot", "wal-2"} {
		blob, err := os.ReadFile(filepath.Join("testdata", "durable-sized", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, Width: 32, Depth: 2, WindowLength: 4096, Seed: 7, UpperBound: 1 << 16}
	open := func(store DurableStore) *ecmsketch.Sharded {
		cfg := ShardedConfig{Params: p, Shards: 2}
		if store != nil {
			cfg.Durability = &DurabilityConfig{Store: store}
		}
		sh, err := NewSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		return sh
	}
	got, want := open(store), open(nil)
	// The writer's stream: 3,200 arrivals in batches of 50, checkpointed
	// after the first 3,000.
	var evs []Event
	for i := 0; i < 3200; i++ {
		evs = append(evs, Event{Key: uint64(i*7919) % 61, Tick: uint64(1 + i/2), N: uint64(1 + i%3)})
		if len(evs) == 50 {
			want.AddBatch(evs)
			evs = evs[:0]
		}
	}
	st := got.DurabilityStats()
	if !st.Recovered || st.Epoch != epoch || st.ReplayedRecords == 0 {
		t.Fatalf("recovered %v, epoch %x (want %x), replayed %d records", st.Recovered, st.Epoch, uint64(epoch), st.ReplayedRecords)
	}
	if got.Count() != want.Count() || got.Count() != 6399 {
		t.Fatalf("count %d, an engine fed the stream %d, the writer 6399", got.Count(), want.Count())
	}
	if e := got.Estimate(5, 1<<20); e != 207 || e != want.Estimate(5, 1<<20) {
		t.Fatalf("Estimate(5) %v, an engine fed the stream %v, the writer 207", e, want.Estimate(5, 1<<20))
	}
	if string(got.Marshal()) != string(want.Marshal()) {
		t.Fatal("recovered engine re-encodes differently from an engine fed the same stream")
	}
}
