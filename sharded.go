package ecmsketch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch/internal/core"
	"ecmsketch/internal/hashing"
)

// Sharded is a lock-striped ECM-sketch engine for concurrent workloads.
// Ingest is partitioned across P per-shard sketches by key hash, so
// concurrent writers contend only when they hit the same stripe — the
// paper's Theorem 4 mergeability applied *inside* one process for
// throughput, not just across distributed sites.
//
// Because routing is by key, every arrival of a key lands in exactly one
// shard: single-key point queries (Estimate, EstimateString,
// EstimateInterval) touch a single stripe and pay no merge error at all.
//
// Global queries (SelfJoin, EstimateTotal, InnerProduct, QueryBatch,
// Marshal, Snapshot) are served by a snapshot-based query engine layered
// over the stripes:
//
//   - Each stripe carries a version counter bumped on every mutation.
//     Rebuilding the global view snapshots only the stripes whose version
//     changed since the last build — an arena clone taken under the stripe
//     lock (three slab memcpys, see Sketch.Snapshot) — and reuses the
//     cached snapshot of every unchanged stripe without touching its lock.
//   - The snapshots are merged (the order-preserving ⊕ of Section 5.3,
//     with its bounded error inflation) into an immutable *view* published
//     by atomic pointer swap. A view is frozen at build time — advanced to
//     the engine clock, expiry caches settled — so any number of readers
//     can query it concurrently without locks.
//   - Rebuilds are single-flight: when the view expires (MergeTTL) under a
//     reader stampede, exactly one reader pays the merge; the others are
//     served the previous view lock-free until the new one is published.
//
// All methods are safe for concurrent use.
type Sharded struct {
	params Params
	ttl    time.Duration
	mask   uint64
	shards []shard

	// epoch binds delta-snapshot cursors to this engine instance; a
	// restarted or reconfigured engine mints a new one, invalidating every
	// outstanding cursor (pullers transparently re-baseline).
	epoch uint64

	// now is the global high-water tick across all shards; queries advance
	// the touched shard to it so expiry is aligned engine-wide.
	now atomic.Uint64

	// view is the current immutable merged view, swapped whole on rebuild;
	// nil until the first global query. Readers Load and query it with no
	// locking at all.
	view atomic.Pointer[shardedView]

	// rebuild is the single-flight guard of view rebuilds and owns the
	// per-stripe snapshot cache that makes rebuilds incremental. Only the
	// goroutine holding the mutex touches parts/versions.
	rebuild struct {
		sync.Mutex
		parts    []*Sketch // cached per-stripe snapshots, advanced to the view clock
		versions []uint64  // stripe version each cached part reflects
	}

	// rebuilds counts completed merged-view builds (see ViewRebuilds);
	// rebuildNs and rebuildWorkers record the last build's wall time and
	// snapshot-pool width for RebuildStats.
	rebuilds       atomic.Uint64
	rebuildNs      atomic.Int64
	rebuildWorkers atomic.Int64

	// notifier, when set, receives change notes after every mutation —
	// the hook standing-query evaluation hangs off. Stored behind an
	// atomic pointer so SetNotifier is safe against in-flight ingest.
	notifier atomic.Pointer[Notifier]

	// closeOnce makes Close (and CloseAbrupt) idempotent.
	closeOnce sync.Once

	// async, when non-nil, is the per-stripe ingest pipeline (Async config);
	// writers enqueue grouped sub-batches instead of taking stripe locks.
	async *asyncPipeline

	// dur, when non-nil, is the durability subsystem (Durability config):
	// applied mutations are WAL-appended under the stripe lock, and
	// checkpoints/recovery keep epoch and cell versions across restarts.
	dur *durableState
}

// shardedView is one immutable published state of the merged query engine.
// sk is frozen: it was advanced to its own clock when built and its clock
// never moves again, which makes every query on it — even the lazily
// expiring sliding-window reads — a pure read. The -race stress tests
// assert this.
type shardedView struct {
	sk      *Sketch
	version uint64 // sum of per-stripe versions the parts were snapshotted at
	builtAt time.Time
}

// shard pads each stripe to its own cache lines so neighboring locks don't
// false-share under heavy concurrent ingest. version counts the stripe's
// mutations, count caches sk.Count(), and deltaVer mirrors the sketch's
// arrival-mutation version (the stripe's delta-cursor component, which —
// unlike version — does not move on Advance-only mutations) — all written
// while holding mu (so the update is uncontended), read lock-free by the
// view cache check, Sharded.Count and DeltaSnapshot respectively.
type shard struct {
	mu       sync.Mutex
	sk       *Sketch
	version  atomic.Uint64
	count    atomic.Uint64
	deltaVer atomic.Uint64
	// Fields above total 40 bytes; pad the stride to two cache lines so no
	// two stripes ever share one.
	_ [128 - 40]byte
}

// ShardedConfig configures a Sharded engine.
type ShardedConfig struct {
	// Params configures every per-shard sketch. All shards share the seed,
	// dimensions and window configuration, so they stay mergeable.
	// Count-based windows are rejected: splitting a count-based window
	// across stripes changes its semantics (each stripe would cover its own
	// last N arrivals, not the stream's).
	Params Params
	// Shards is the stripe count P, rounded up to a power of two; 0 means
	// GOMAXPROCS. More stripes mean less write contention but a costlier
	// merged view for global queries.
	Shards int
	// MergeTTL bounds the staleness of the cached merged view serving
	// global queries. 0 means strict freshness: a global query never
	// returns answers older than the stripes at call time, re-merging (and
	// briefly serializing readers) after every write burst. A positive TTL
	// lets readers run lock-free against the published view; while a
	// TTL-expired view is being rebuilt, concurrent readers are served the
	// previous view, so the worst-case staleness is MergeTTL plus one
	// rebuild duration.
	MergeTTL time.Duration
	// Async moves ingest onto a per-stripe pipeline: every stripe gets an
	// owner goroutine consuming a bounded queue of pre-grouped sub-batches
	// (asyncQueueDepth deep; writers block when it is full), and writers only
	// group, copy and enqueue — they never take stripe locks, so concurrent
	// writers scale with stripes instead of contending on them. The trade is
	// read-your-writes: a write is visible to queries, delta cursors and
	// standing-query evaluation only once its stripe owner has applied it.
	// Flush is the barrier — it returns after everything enqueued before the
	// call is applied, and a read after Flush observes a consistent
	// post-flush state. Async engines hold P goroutines until Close (which
	// flushes, stops the owners, and reverts writes to the synchronous
	// path). Off by default: zero-configuration engines keep strictly
	// synchronous semantics.
	Async bool
	// Durability, when non-nil, makes the engine's state survive restarts:
	// construction recovers the persisted epoch, arena snapshots and WAL
	// from the Store (or starts a fresh epoch when there is nothing usable),
	// every applied mutation is WAL-logged, and checkpoints run on
	// SnapshotInterval. A recovered engine serves deltas from the same
	// epoch and cell versions as its predecessor, so no puller re-baselines.
	// On Async engines the durability boundary is apply time: Flush is the
	// barrier that makes earlier writes both applied and fsynced.
	Durability *DurabilityConfig
}

// asyncQueueDepth bounds each Async stripe queue, in sub-batches: the
// backpressure point past which writers block on a slow owner.
const asyncQueueDepth = 256

// NewSharded builds a lock-striped engine of identically configured,
// mergeable per-shard sketches.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Params.Model == CountBased {
		return nil, fmt.Errorf("ecmsketch: Sharded requires time-based windows (count-based semantics do not survive key partitioning)")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("ecmsketch: Shards must be non-negative, got %d", cfg.Shards)
	}
	p := cfg.Shards
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	// Round up to a power of two so routing is a mask, not a modulo.
	pow := 1
	for pow < p {
		pow <<= 1
	}
	sh := &Sharded{params: cfg.Params, ttl: cfg.MergeTTL, mask: uint64(pow - 1), epoch: core.NewEpoch()}
	sh.shards = make([]shard, pow)
	for i := range sh.shards {
		s, err := New(cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("ecmsketch: shard %d: %w", i, err)
		}
		// Distinct identifier salts keep randomized-wave event identifiers
		// globally unique across stripes (as NewCluster does across sites).
		// Cell-level salts are normalized too: stripes never draw cell
		// auto-identifiers, and deterministic salts make identically
		// configured engines byte-identical — the recovery contract durable
		// crash tests pin.
		s.SetIDSalt(0x9e37_79b9_7f4a_7c15 * uint64(i+1))
		s.NormalizeCellSalts()
		sh.shards[i].sk = s
	}
	if cfg.Durability != nil {
		// Recovery must complete before any background goroutine can
		// mutate the stripes, so it runs ahead of the async pipeline below.
		if err := sh.initDurable(cfg.Durability); err != nil {
			return nil, fmt.Errorf("ecmsketch: durability: %w", err)
		}
	}
	if cfg.Async {
		a := &asyncPipeline{on: true, qs: make([]chan stripeMsg, pow)}
		sh.async = a
		a.done.Add(pow)
		for i := range a.qs {
			a.qs[i] = make(chan stripeMsg, asyncQueueDepth)
			go sh.stripeOwner(i, a.qs[i])
		}
	}
	return sh, nil
}

// Close stops the engine's background goroutines — on Async engines the
// per-stripe ingest owners, after draining every queued write; on durable
// engines the checkpoint and fsync loops — and then, on durable engines,
// writes a final checkpoint and shuts the WAL down synced, so a clean
// restart replays nothing. It is idempotent and a no-op on engines built
// with neither. The engine remains usable after Close; writes revert to the
// synchronous path (and, on durable engines, stop being persisted).
func (sh *Sharded) Close() error {
	var err error
	sh.closeOnce.Do(func() {
		sh.stopBackground()
		if sh.dur != nil {
			err = sh.closeDurable()
		}
	})
	return err
}

// stopBackground halts every goroutine the engine started, waiting for each
// to exit: the half of teardown Close and CloseAbrupt share. Queued async
// writes are applied (and WAL-appended) before the owners exit.
func (sh *Sharded) stopBackground() {
	if sh.async != nil {
		sh.async.stop()
	}
	if sh.dur != nil {
		for _, stop := range sh.dur.stops {
			stop()
		}
	}
}

// Shards reports the stripe count P.
func (sh *Sharded) Shards() int { return len(sh.shards) }

// Params returns the per-shard sketch configuration.
func (sh *Sharded) Params() Params { return sh.params }

// stripeOf routes key to the index of the stripe owning it.
func (sh *Sharded) stripeOf(key uint64) int {
	return int(hashing.Mix64(key) & sh.mask)
}

// observe raises the global high-water tick to t.
func (sh *Sharded) observe(t Tick) {
	for {
		cur := sh.now.Load()
		if t <= cur || sh.now.CompareAndSwap(cur, t) {
			return
		}
	}
}

// noteMutation publishes a stripe's post-mutation state: the version bump
// invalidates its cached snapshot, the count cache feeds lock-free
// Sharded.Count reads. Callers must hold s.mu.
func (s *shard) noteMutation() {
	s.count.Store(s.sk.Count())
	s.deltaVer.Store(s.sk.DeltaVersion())
	s.version.Add(1)
}

// applyStripe is the write path's one critical section: every arrival that
// ever reaches stripe si — a single AddN, a one-stripe or striped batch, an
// async owner's sub-batch — lands here. Under the stripe lock it applies
// events through the stripe sketch's batch pipeline (whose validation is the
// clamp: ticks 1-based and never behind the stripe clock, N = 0 a unit
// arrival), appends the WAL record while the lock is still held — that is
// what makes per-stripe WAL order equal apply order, and the record carries
// the pre-apply clock so replay clamps identically — and publishes the
// stripe's new state. It returns the stripe clock after the apply.
func (sh *Sharded) applyStripe(si int, events []Event) (now Tick) {
	s := &sh.shards[si]
	s.mu.Lock()
	pre := s.sk.Now()
	s.sk.AddBatch(events)
	if sh.dur != nil {
		sh.logBatch(si, pre, s.sk.DeltaVersion(), events)
	}
	now = s.sk.Now()
	s.noteMutation()
	s.mu.Unlock()
	return now
}

// advanceStripe is applyStripe's twin for a pure clock advance of stripe si.
// Advances are logged per stripe, under each stripe's lock, so per-stripe
// WAL order matches apply order even when a batch on another goroutine
// interleaves with an engine-wide Advance. Read-path advances (lockSettled)
// do not come through here: they log only when they drop content.
func (sh *Sharded) advanceStripe(si int, t Tick) {
	s := &sh.shards[si]
	s.mu.Lock()
	s.sk.Advance(t)
	if sh.dur != nil {
		sh.logAdvance(si, t)
	}
	s.noteMutation()
	s.mu.Unlock()
}

// SetNotifier installs (or, with nil, removes) the change-note hook. Notes
// are delivered synchronously on the mutating goroutine after the stripe
// locks are released — the notifier may query the engine, and a slow
// notifier slows its caller, never other writers. The standing-query
// registry is the intended notifier; see StandingRegistry.
func (sh *Sharded) SetNotifier(n Notifier) {
	if n == nil {
		sh.notifier.Store(nil)
		return
	}
	sh.notifier.Store(&n)
}

func (sh *Sharded) loadNotifier() Notifier {
	if p := sh.notifier.Load(); p != nil {
		return *p
	}
	return nil
}

// CellIndices reports the Count-Min cells key's estimate reads — identical
// in every stripe, since all stripes share one hash family (see
// Sketch.CellIndices).
func (sh *Sharded) CellIndices(key uint64, dst []int) []int {
	return sh.shards[0].sk.CellIndices(key, dst)
}

// Add registers one arrival of key at tick t.
func (sh *Sharded) Add(key uint64, t Tick) { sh.AddN(key, t, 1) }

// AddN registers n arrivals of key at tick t; n = 0 counts as a unit
// arrival, the engine-wide Event contract. It is a one-event batch on the
// key's stripe, clamped against that stripe's clock (see Ingestor).
func (sh *Sharded) AddN(key uint64, t Tick, n uint64) {
	sh.observe(t)
	if sh.async != nil && sh.addNAsync(key, t, n) {
		return
	}
	one := [1]Event{{Key: key, Tick: t, N: n}}
	sh.applyStripe(sh.stripeOf(key), one[:])
	if nt := sh.loadNotifier(); nt != nil {
		nt.NoteEvents(one[:])
	}
}

// AddString registers one arrival of a string-keyed item.
func (sh *Sharded) AddString(key string, t Tick) { sh.AddN(KeyString(key), t, 1) }

// AddBatch registers a slice of arrivals, grouping them per stripe so each
// shard lock is taken at most once for the whole batch. Events are applied
// in slice order within each stripe, with ticks validated once per batch
// against the engine clock (see Ingestor for the clamping contract), so
// every stripe applies the same non-decreasing tick sequence a single
// sketch would. Grouping threads index chains through pooled scratch
// slices instead of materializing per-stripe buckets, so steady-state
// batch ingest allocates nothing.
func (sh *Sharded) AddBatch(events []Event) {
	// Chain indices are int32; chunk absurdly large batches.
	const maxChunk = 1 << 30
	for len(events) > maxChunk {
		sh.AddBatch(events[:maxChunk])
		events = events[maxChunk:]
	}
	if len(events) == 0 {
		return
	}
	if sh.async != nil && sh.addBatchAsync(events) {
		return
	}
	if len(sh.shards) == 1 {
		// The lone stripe's sketch clock tracks the engine clock exactly, so
		// its own batch validation is the engine-level one.
		sh.observe(sh.applyStripe(0, events))
	} else {
		// Gather each stripe's chain into one scratch sub-batch and hand it
		// to the sketch's own batch pipeline (row-major arena sweep for EH),
		// so striping does not forfeit the devirtualized hot path. The
		// engine-level ticks are already clamped, so the per-sketch
		// validation is a no-op pass over an in-order sequence.
		sc := batchScratchPool.Get().(*shardedBatchScratch)
		sh.groupByStripe(sc, events)
		for si := range sh.shards {
			if sc.heads[si] >= 0 {
				sc.sub = sc.gather(sc.sub[:0], events, si) // retains any growth for the next stripe
				sh.applyStripe(si, sc.sub)
			}
		}
		batchScratchPool.Put(sc)
	}
	if nt := sh.loadNotifier(); nt != nil {
		nt.NoteEvents(events)
	}
}

// groupByStripe threads per-stripe index chains through sc's pooled scratch
// for events — no per-stripe sub-slices are materialized — while clamping
// ticks once against the engine clock (see Ingestor), and raises the
// engine's high-water tick. Both the synchronous apply loop and the async
// enqueue path consume the chains.
func (sh *Sharded) groupByStripe(sc *shardedBatchScratch, events []Event) {
	sc.resize(len(sh.shards), len(events))
	heads, tails, next, ticks := sc.heads, sc.tails, sc.next, sc.ticks
	for i := range heads {
		heads[i] = -1
	}
	lo := sh.now.Load()
	if lo == 0 {
		lo = 1 // ticks are 1-based
	}
	for i, ev := range events {
		idx := hashing.Mix64(ev.Key) & sh.mask
		if heads[idx] < 0 {
			heads[idx] = int32(i)
		} else {
			next[tails[idx]] = int32(i)
		}
		tails[idx] = int32(i)
		next[i] = -1
		if ev.Tick > lo {
			lo = ev.Tick
		}
		ticks[i] = lo
	}
	sh.observe(lo)
}

// shardedBatchScratch is the pooled working memory of Sharded.AddBatch:
// per-stripe chain heads/tails, per-event links and validated ticks, and
// the sub-batch buffer handed to each stripe's sketch.
type shardedBatchScratch struct {
	heads, tails []int32
	next         []int32
	ticks        []Tick
	sub          []Event
}

var batchScratchPool = sync.Pool{New: func() any { return new(shardedBatchScratch) }}

// gather appends stripe si's chain of events, under their clamped ticks, to
// dst.
func (sc *shardedBatchScratch) gather(dst, events []Event, si int) []Event {
	for i := sc.heads[si]; i >= 0; i = sc.next[i] {
		ev := events[i]
		ev.Tick = sc.ticks[i]
		dst = append(dst, ev)
	}
	return dst
}

func (sc *shardedBatchScratch) resize(stripes, events int) {
	if cap(sc.heads) < stripes {
		sc.heads = make([]int32, stripes)
		sc.tails = make([]int32, stripes)
	}
	sc.heads = sc.heads[:stripes]
	sc.tails = sc.tails[:stripes]
	if cap(sc.next) < events {
		sc.next = make([]int32, events)
		sc.ticks = make([]Tick, events)
	}
	sc.next = sc.next[:events]
	sc.ticks = sc.ticks[:events]
	if cap(sc.sub) < events {
		sc.sub = make([]Event, 0, events)
	}
}

// asyncPipeline is the per-stripe ingest pipeline of an Async engine: one
// bounded queue plus one owner goroutine per stripe. Writers hold mu for
// reading (enqueue), stop holds it for writing — the lifecycle gate that
// makes shutdown race-free against in-flight enqueues without a lock on
// the per-event path.
type asyncPipeline struct {
	mu   sync.RWMutex
	on   bool
	qs   []chan stripeMsg
	done sync.WaitGroup
	// bufs pools the event chunks shipped through the queues; owners return
	// them after applying, so steady-state async ingest allocates nothing.
	bufs sync.Pool
}

// stripeMsg is one unit of work on a stripe queue: exactly one of events
// (apply this sub-batch), adv (advance the stripe clock) or flush (barrier
// acknowledgement) is set.
type stripeMsg struct {
	events []Event
	adv    *advanceMsg
	flush  *sync.WaitGroup
}

// advanceMsg fans one engine-level Advance out to every stripe; the last
// owner to apply it delivers the notifier's NoteAdvance, so standing-query
// evaluation sees the fully advanced engine.
type advanceMsg struct {
	t       Tick
	pending atomic.Int32
}

func (a *asyncPipeline) getBuf() []Event {
	if p := a.bufs.Get(); p != nil {
		return (*p.(*[]Event))[:0]
	}
	return nil
}

func (a *asyncPipeline) putBuf(b []Event) {
	a.bufs.Put(&b)
}

// stop flushes nothing but closes every queue and waits for the owners to
// drain and exit; writes arriving after stop apply synchronously.
func (a *asyncPipeline) stop() {
	a.mu.Lock()
	if !a.on {
		a.mu.Unlock()
		return
	}
	a.on = false
	for _, q := range a.qs {
		close(q)
	}
	a.mu.Unlock()
	a.done.Wait()
}

// enter takes the lifecycle gate for one enqueue; the caller releases it
// with a.mu.RUnlock. It reports false — gate not held — when the pipeline
// is stopped (Close raced the call): the caller falls back to the
// synchronous path.
func (a *asyncPipeline) enter() bool {
	a.mu.RLock()
	if a.on {
		return true
	}
	a.mu.RUnlock()
	return false
}

// broadcast enqueues m on every stripe queue, ordered behind everything
// enqueued before it. Reports false when the pipeline is stopped.
func (a *asyncPipeline) broadcast(m stripeMsg) bool {
	if !a.enter() {
		return false
	}
	for _, q := range a.qs {
		q <- m
	}
	a.mu.RUnlock()
	return true
}

// stripeOwner is stripe i's single mutator in async mode: it applies
// queued sub-batches under the stripe lock (uncontended by other writers —
// only queries and snapshots ever share it) and delivers change notes from
// its own goroutine.
func (sh *Sharded) stripeOwner(i int, q chan stripeMsg) {
	defer sh.async.done.Done()
	for m := range q {
		switch {
		case m.flush != nil:
			m.flush.Done()
		case m.adv != nil:
			sh.advanceStripe(i, m.adv.t)
			if m.adv.pending.Add(-1) == 0 {
				if nt := sh.loadNotifier(); nt != nil {
					nt.NoteAdvance()
				}
			}
		default:
			sh.applyStripe(i, m.events)
			if nt := sh.loadNotifier(); nt != nil {
				nt.NoteEvents(m.events)
			}
			sh.async.putBuf(m.events)
		}
	}
}

// addBatchAsync groups events per stripe and enqueues one copied sub-batch
// per touched stripe. Reports false when the pipeline is stopped.
func (sh *Sharded) addBatchAsync(events []Event) bool {
	a := sh.async
	if !a.enter() {
		return false
	}
	sc := batchScratchPool.Get().(*shardedBatchScratch)
	sh.groupByStripe(sc, events)
	for si := range sh.shards {
		if sc.heads[si] >= 0 {
			a.qs[si] <- stripeMsg{events: sc.gather(a.getBuf(), events, si)}
		}
	}
	batchScratchPool.Put(sc)
	a.mu.RUnlock()
	return true
}

// addNAsync enqueues a single arrival to its stripe's queue. Reports false
// when the pipeline is stopped.
func (sh *Sharded) addNAsync(key uint64, t Tick, n uint64) bool {
	a := sh.async
	if !a.enter() {
		return false
	}
	a.qs[sh.stripeOf(key)] <- stripeMsg{events: append(a.getBuf(), Event{Key: key, Tick: t, N: n})}
	a.mu.RUnlock()
	return true
}

// Flush is the async-ingest barrier: it returns once every write enqueued
// before the call has been applied to its stripe, so a subsequent query,
// delta pull or standing-query evaluation observes all of them. On a
// synchronous engine (Async off, or after Close) the apply barrier is a
// no-op — writes are already applied when their call returns. On durable
// engines Flush additionally fsyncs the WAL, making everything it covers
// durable regardless of SyncInterval.
func (sh *Sharded) Flush() {
	if a := sh.async; a != nil {
		var applied sync.WaitGroup
		applied.Add(len(a.qs))
		if a.broadcast(stripeMsg{flush: &applied}) {
			applied.Wait()
		}
	}
	if sh.dur != nil {
		sh.dur.syncNow()
	}
}

// Advance moves the window clock of every stripe forward. On an Async
// engine the advance is fanned out to every stripe queue, so it stays
// ordered behind previously enqueued batches.
func (sh *Sharded) Advance(t Tick) {
	sh.observe(t)
	if a := sh.async; a != nil {
		adv := &advanceMsg{t: t}
		adv.pending.Store(int32(len(a.qs)))
		if a.broadcast(stripeMsg{adv: adv}) {
			return
		}
	}
	for i := range sh.shards {
		sh.advanceStripe(i, t)
	}
	if nt := sh.loadNotifier(); nt != nil {
		nt.NoteAdvance()
	}
}

// Estimate answers a point query over the last r ticks. Key-hash routing
// means the answer comes from the single stripe owning the key, with no
// merge error; the stripe is first advanced to the engine-wide clock so
// expiry matches a single-sketch deployment. For multi-key reads, or when
// the answers must come from one consistent cut, use QueryBatch.
func (sh *Sharded) Estimate(key uint64, r Tick) float64 {
	s := sh.lockSettled(sh.stripeOf(key), sh.now.Load())
	defer s.mu.Unlock()
	return s.sk.Estimate(key, r)
}

// lockSettled is the read side's one stripe accessor: it returns stripe si
// locked and advanced to the engine clock now, so a point read expires what
// a single-sketch deployment would have. The caller unlocks.
func (sh *Sharded) lockSettled(si int, now Tick) *shard {
	s := &sh.shards[si]
	s.mu.Lock()
	if now > s.sk.Now() {
		sh.settleStripe(si, now)
	}
	return s
}

// EstimateString answers a point query for a string key.
func (sh *Sharded) EstimateString(key string, r Tick) float64 {
	return sh.Estimate(KeyString(key), r)
}

// EstimateInterval answers a point query over the tick interval (from, to],
// again from the single stripe owning the key.
func (sh *Sharded) EstimateInterval(key uint64, from, to Tick) float64 {
	s := sh.lockSettled(sh.stripeOf(key), sh.now.Load())
	defer s.mu.Unlock()
	return s.sk.EstimateInterval(key, from, to)
}

// SelfJoin estimates F₂ over the last r ticks from the merged view.
func (sh *Sharded) SelfJoin(r Tick) float64 {
	view, err := sh.queryView()
	if err != nil {
		return 0
	}
	return view.SelfJoin(r)
}

// EstimateTotal estimates ‖a_r‖₁ over the last r ticks from the merged view.
func (sh *Sharded) EstimateTotal(r Tick) float64 {
	view, err := sh.queryView()
	if err != nil {
		return 0
	}
	return view.EstimateTotal(r)
}

// InnerProduct estimates the inner product between this engine's combined
// stream and another sketch's stream over the last r ticks. Sliding-window
// queries expire lazily — evaluating a sketch mutates it — so the query
// runs against a private snapshot of other: the caller's sketch is never
// written, and concurrent InnerProduct calls sharing one reference sketch
// stay race-free.
func (sh *Sharded) InnerProduct(other *Sketch, r Tick) (float64, error) {
	view, err := sh.queryView()
	if err != nil {
		return 0, err
	}
	o := other
	if other != nil {
		if o, err = other.Snapshot(); err != nil {
			return 0, err
		}
	}
	return view.InnerProduct(o, r)
}

// QueryBatch answers a multi-key query — point estimates for every key plus
// the optional total and self-join aggregates — from one frozen merged
// view, so all answers in the batch describe the same consistent cut of the
// combined stream. Unlike single-key Estimate calls (which route to the
// key's stripe and pay no merge error), batched point answers carry the
// merged view's bounded error inflation; that is the price of consistency.
func (sh *Sharded) QueryBatch(q QueryBatch) (QueryResult, error) {
	view, err := sh.queryView()
	if err != nil {
		return QueryResult{}, err
	}
	return view.QueryBatch(q)
}

// QueryDirect answers a multi-key point query by routing each key to its
// owning stripe — the batched form of Estimate. Because every arrival of a
// key lands in exactly one stripe, each answer carries zero merge error,
// and no merged view is built or touched (ViewRebuilds does not move). The
// trade against QueryBatch is consistency: answers come from per-stripe
// states that concurrent writers may interleave with, so the batch is an
// inconsistent cut. Aggregates need the merged view and are rejected here;
// request them through QueryBatch.
func (sh *Sharded) QueryDirect(q QueryBatch) (QueryResult, error) {
	if q.Total || q.SelfJoin {
		return QueryResult{}, core.ErrDirectAggregates
	}
	now := sh.now.Load()
	r := q.Range
	if r == 0 {
		r = sh.params.WindowLength
	}
	res := QueryResult{Now: now, Range: r}
	if len(q.Keys) == 0 {
		return res, nil
	}
	res.Estimates = make([]float64, len(q.Keys))
	// Group key positions by owning stripe so each touched stripe's lock is
	// taken once for all its keys, like ingest's grouped batches.
	perStripe := make([][]int, len(sh.shards))
	for i, key := range q.Keys {
		si := sh.stripeOf(key)
		perStripe[si] = append(perStripe[si], i)
	}
	for si, idxs := range perStripe {
		if len(idxs) == 0 {
			continue
		}
		s := sh.lockSettled(si, now)
		for _, i := range idxs {
			res.Estimates[i] = s.sk.Estimate(q.Keys[i], r)
		}
		s.mu.Unlock()
	}
	return res, nil
}

// RebuildStats reports the last merged-view rebuild: wall time in
// nanoseconds and the worker-pool width its per-stripe snapshot stage ran
// at (1 = sequential). Zeros until the first rebuild. Exposed through
// /v1/stats next to ViewRebuilds.
func (sh *Sharded) RebuildStats() (mergeNs int64, workers int) {
	return sh.rebuildNs.Load(), int(sh.rebuildWorkers.Load())
}

// Now reports the engine-wide high-water tick.
func (sh *Sharded) Now() Tick { return sh.now.Load() }

// Count reports total arrivals across all stripes since stream start. The
// read is lock-free: each stripe caches its sketch's count under the stripe
// lock on every mutation, and Count sums the caches, so monitoring endpoints
// polling it never stall ingest (and never race with it).
func (sh *Sharded) Count() uint64 {
	var total uint64
	for i := range sh.shards {
		total += sh.shards[i].count.Load()
	}
	return total
}

// ViewRebuilds reports how many merged-view builds the engine has performed
// since construction. Each build snapshots the stripes that changed since
// the previous build and re-merges; a well-tuned MergeTTL shows rebuild
// counts far below global-query counts. Exposed for observability (the
// ecmserver /v1/stats endpoint reports it) and for the single-flight tests.
func (sh *Sharded) ViewRebuilds() uint64 { return sh.rebuilds.Load() }

// Width reports the Count-Min width shared by every stripe.
func (sh *Sharded) Width() int { return sh.shards[0].sk.Width() }

// Depth reports the Count-Min depth shared by every stripe.
func (sh *Sharded) Depth() int { return sh.shards[0].sk.Depth() }

// MemoryBytes reports the summed footprint of all stripes. The snapshot
// cache and published view of the query engine add up to roughly one extra
// stripe-set on top of this while global queries are in use.
func (sh *Sharded) MemoryBytes() int {
	var total int
	for i := range sh.shards {
		s := &sh.shards[i]
		s.mu.Lock()
		total += s.sk.MemoryBytes()
		s.mu.Unlock()
	}
	return total
}

// Marshal serializes the merged view of the combined stream — the same wire
// format as Sketch.Marshal, so coordinators can pull and Merge it with other
// sites' summaries. Serialization is a pure read of the frozen view (scratch
// is call-local), so concurrent pulls need no coordination. Returns nil if
// the merge fails (only possible with corrupted state).
func (sh *Sharded) Marshal() []byte {
	view, err := sh.queryView()
	if err != nil {
		return nil
	}
	return view.Marshal()
}

// Snapshot returns an independent single-sketch copy of the combined
// stream: the current merged view, cloned (an arena copy for the default
// exponential-histogram engine — see Sketch.Snapshot).
func (sh *Sharded) Snapshot() (*Sketch, error) {
	view, err := sh.queryView()
	if err != nil {
		return nil, err
	}
	return view.Snapshot()
}

// DeltaSnapshot answers a cursor-based incremental pull over the stripes
// (see DeltaSnapshotter). The cursor is the vector of per-stripe
// arrival-mutation versions plus the engine epoch; a stripe whose version
// is unchanged contributes zero bytes, and within a changed stripe only the
// cells whose version moved ship — for all three algorithms, now that the
// wave engines share the flat arena's change tracking. Unlike full
// snapshots, delta pulls never build or touch the merged view: the puller
// holds the stripes and merges on its side, so a steady-state pull loop
// costs the site a few stripe clones instead of a P-way merge.
//
// An unrecognized cursor — zero, another epoch, versions from the future —
// yields a full baseline instead: every stripe's complete encoding under
// one multipart framing, re-baselining the puller.
func (sh *Sharded) DeltaSnapshot(since Cursor) ([]byte, Cursor, bool, error) {
	engineNow := sh.now.Load()
	cur := Cursor{Epoch: sh.epoch, Vers: make([]uint64, len(sh.shards))}
	valid := since.Epoch == sh.epoch && len(since.Vers) == len(sh.shards)
	if valid {
		for i := range sh.shards {
			if since.Vers[i] > sh.shards[i].deltaVer.Load() {
				valid = false // versions this engine never issued
				break
			}
		}
	}
	if !valid {
		parts := make([][]byte, len(sh.shards))
		for i := range sh.shards {
			snap, ver, err := sh.stripeSnapshot(i)
			if err != nil {
				return nil, Cursor{}, false, err
			}
			snap.Advance(engineNow) // settle the clone to the engine clock
			// Stripes hold only their share of the keyspace, so most cells
			// are untouched: the sparse form elides them, bringing the
			// multipart baseline down from ~2× the merged-view encoding to
			// roughly the occupied cells alone.
			parts[i] = snap.MarshalSparse()
			cur.Vers[i] = ver
		}
		return core.EncodeMultiFull(sh.epoch, engineNow, parts), cur, true, nil
	}
	var changed []core.PartDelta
	for i := range sh.shards {
		if v := sh.shards[i].deltaVer.Load(); v == since.Vers[i] {
			cur.Vers[i] = v // unchanged stripe: zero bytes
			continue
		}
		snap, ver, err := sh.stripeSnapshot(i)
		if err != nil {
			return nil, Cursor{}, false, err
		}
		cur.Vers[i] = ver
		if ver == since.Vers[i] {
			continue // settled between the atomic check and the lock
		}
		snap.Advance(engineNow)
		// All three paper algorithms live on flat arenas with per-cell change
		// tracking, so every changed stripe ships cell-granular.
		sub := snap.AppendDeltaSince(nil, sh.epoch, since.Vers[i])
		changed = append(changed, core.PartDelta{Index: i, Payload: sub})
	}
	return core.EncodeMultiDelta(sh.epoch, engineNow, len(sh.shards), changed), cur, false, nil
}

// stripeSnapshot clones stripe i under its lock and reports the
// arrival-mutation version the clone reflects.
func (sh *Sharded) stripeSnapshot(i int) (*Sketch, uint64, error) {
	s := &sh.shards[i]
	s.mu.Lock()
	ver := s.sk.DeltaVersion()
	snap, err := s.sk.Snapshot()
	s.mu.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("ecmsketch: snapshotting shard %d: %w", i, err)
	}
	return snap, ver, nil
}

// versionSum folds the per-stripe version counters into the freshness token
// the view cache compares against. Versions only grow, so two equal sums
// imply every stripe is unchanged.
func (sh *Sharded) versionSum() uint64 {
	var v uint64
	for i := range sh.shards {
		v += sh.shards[i].version.Load()
	}
	return v
}

// viewFresh reports whether a published view may serve global queries
// without a rebuild: either no stripe has mutated since it was built, or a
// MergeTTL is configured and has not lapsed.
func (sh *Sharded) viewFresh(v *shardedView) bool {
	if v.version == sh.versionSum() {
		return true
	}
	return sh.ttl > 0 && time.Since(v.builtAt) < sh.ttl
}

// queryView returns the sketch global queries are answered from. The fast
// path is entirely lock-free: load the published view, check freshness
// (atomic version sum or TTL), query it. When a rebuild is needed it is
// single-flight; with a MergeTTL configured, readers that lose the race are
// served the previous view instead of blocking behind the merge.
func (sh *Sharded) queryView() (*Sketch, error) {
	v := sh.view.Load()
	if v != nil && sh.viewFresh(v) {
		return v.sk, nil
	}
	if v != nil && sh.ttl > 0 {
		// Stale view, staleness tolerated: exactly one reader rebuilds,
		// everyone else keeps reading the previous view lock-free.
		if !sh.rebuild.TryLock() {
			return v.sk, nil
		}
	} else {
		// First global query (nothing to serve yet) or strict-freshness
		// mode (MergeTTL == 0): block until a fresh view exists.
		sh.rebuild.Lock()
	}
	defer sh.rebuild.Unlock()
	// Re-check under the lock: the rebuild we queued behind may have
	// published exactly the view we need.
	if v := sh.view.Load(); v != nil && sh.viewFresh(v) {
		return v.sk, nil
	}
	return sh.rebuildLocked()
}

// rebuildLocked builds and publishes a fresh merged view; sh.rebuild must
// be held. The build is incremental: only stripes whose version moved since
// their cached snapshot was taken are re-snapshotted (an arena clone under
// the stripe lock); unchanged stripes contribute their cached snapshot
// without touching their lock at all. The merge itself runs on the
// snapshots, never blocking ingest.
func (sh *Sharded) rebuildLocked() (*Sketch, error) {
	now := sh.now.Load()
	if sh.rebuild.parts == nil {
		sh.rebuild.parts = make([]*Sketch, len(sh.shards))
		sh.rebuild.versions = make([]uint64, len(sh.shards))
	}
	start := time.Now()
	// Per-stripe clone+advance is independent work (each stripe's lock and
	// its cache slots are its own), so fan it across a worker pool; the
	// parts land in the same cache slots in the same state as a sequential
	// sweep, so the merge below — itself parallel on large arrays, see
	// core.SetMergeParallelism — stays byte-identical either way.
	workers := runtime.GOMAXPROCS(0)
	if p := core.MergeParallelism(); p > 0 && p < workers {
		workers = p
	}
	if workers > len(sh.shards) {
		workers = len(sh.shards)
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, len(sh.shards))
	core.FanOut(len(sh.shards), workers, func(i int) { errs[i] = sh.refreshPart(i, now) })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var vsum uint64
	for i := range sh.shards {
		vsum += sh.rebuild.versions[i]
	}
	view, err := Merge(sh.rebuild.parts...)
	if err != nil {
		return nil, fmt.Errorf("ecmsketch: merging shards: %w", err)
	}
	// The view sits at the engine clock the parts were settled to; from here
	// on its clock never moves, so concurrent queries on it are pure reads.
	sh.view.Store(&shardedView{sk: view, version: vsum, builtAt: time.Now()})
	sh.rebuilds.Add(1)
	sh.rebuildNs.Store(time.Since(start).Nanoseconds())
	sh.rebuildWorkers.Store(int64(workers))
	return view, nil
}

// refreshPart brings stripe i's cached snapshot up to date (an arena clone
// under the stripe lock when its version moved, a no-op otherwise) and
// settles it at the engine clock, so the merge sees the same expiry
// frontier a single sketch would. The settle is unconditional: a stripe
// whose clock already equals the engine clock still holds cells that last
// expired at their own arrivals. Only the rebuild holder runs it; distinct
// stripes may refresh concurrently.
func (sh *Sharded) refreshPart(i int, now Tick) error {
	s := &sh.shards[i]
	ver := s.version.Load()
	if sh.rebuild.parts[i] == nil || sh.rebuild.versions[i] != ver {
		s.mu.Lock()
		ver = s.version.Load() // stable while mu is held
		part, err := s.sk.Snapshot()
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("ecmsketch: snapshotting shard %d: %w", i, err)
		}
		sh.rebuild.parts[i] = part
		sh.rebuild.versions[i] = ver
	}
	sh.rebuild.parts[i].Advance(now)
	return nil
}
