package core

import (
	"ecmsketch/internal/hashing"
)

// Event is one stream arrival in batched form: key, logical timestamp and
// multiplicity. Batches amortize per-call overhead (and, for concurrent
// front ends, lock traffic) across many arrivals; they are the unit every
// ingest path of the public API accepts.
type Event struct {
	Key  uint64
	Tick Tick
	N    uint64 // arrival multiplicity; 0 is treated as 1
}

// batchScratch is the reusable working memory of the batch ingest pipeline.
// It is retained on the sketch between batches (sized by the largest batch
// seen), so steady-state batch ingest allocates nothing.
type batchScratch struct {
	ticks []Tick   // per event: validated tick
	ns    []uint64 // per event: validated multiplicity
	pos   []int32  // per (row, event): cell column, laid out row-major

	// Key cache: a direct-mapped table of recently hashed keys and their d
	// row positions, persistent across batches. Repeated keys — within one
	// batch or across a stream of batches — fold and row-hash once and then
	// copy the d cached positions, which is what makes skewed workloads
	// (the Count-Min regime) cheaper per event than uniform ones. Collisions
	// simply overwrite: the cache is advisory, never authoritative.
	ckKey  []uint64
	ckPos  []int32 // ckSlots rows of d positions each
	ckSeen []bool

	// Row grouping: per-column chains built in O(events) per row, emitting
	// an application order that visits one cell's events consecutively (in
	// batch order) before moving to the next cell. head/colStamp are sized
	// by the row width; next/distinct/order by the batch.
	head     []int32
	colStamp []uint32
	colEpoch uint32
	next     []int32
	distinct []int32
	order    []int32
}

func (sc *batchScratch) resize(events, d int) {
	if cap(sc.ticks) < events {
		sc.ticks = make([]Tick, events)
		sc.ns = make([]uint64, events)
	}
	sc.ticks = sc.ticks[:events]
	sc.ns = sc.ns[:events]
	if cap(sc.pos) < events*d {
		sc.pos = make([]int32, events*d)
	}
	sc.pos = sc.pos[:events*d]
}

// ckSlots sizes the persistent key cache (power of two). At 8 Ki slots the
// cache costs ~100 KiB of scratch per sketch and keeps the sole-occupant
// rate high for working sets into the few-thousand-key range.
const ckSlots = 1 << 13

// hashBatch fills sc.pos with every event's d cell columns, laid out
// row-major. When useCache is set, keys hit the persistent cache first; each
// miss is folded and row-hashed once and refills its slot, so both in-batch
// and cross-batch key repetition amortize the d row hashes.
//
// The cache is gated on batch width (the grouping condition, see AddBatch)
// because it only pays while its table stays cache-resident: d row hashes
// are a handful of ALU ops, so a probe that misses to DRAM costs more than
// it saves. Deep batches keep the table hot between probes; tiny batches —
// in particular the per-stripe sub-batches a Sharded engine routes, whose 16
// stripes would otherwise thrash 16 separate tables — hash directly.
func (s *Sketch) hashBatch(events []Event, m int, useCache bool) {
	sc := &s.batch
	d := s.d
	if !useCache {
		for e, ev := range events {
			k := hashing.Fold(ev.Key)
			for j := 0; j < d; j++ {
				sc.pos[j*m+e] = int32(s.fam.HashFolded(j, k))
			}
		}
		return
	}
	if sc.ckKey == nil {
		sc.ckKey = make([]uint64, ckSlots)
		sc.ckPos = make([]int32, ckSlots*d)
		sc.ckSeen = make([]bool, ckSlots)
	}
	const mask = ckSlots - 1
	for e, ev := range events {
		x := hashing.Mix64(ev.Key)
		slot := int(x) & mask
		cp := sc.ckPos[slot*d : slot*d+d : slot*d+d]
		if sc.ckSeen[slot] && sc.ckKey[slot] == ev.Key {
			for j := 0; j < d; j++ {
				sc.pos[j*m+e] = cp[j]
			}
			continue
		}
		sc.ckSeen[slot] = true
		sc.ckKey[slot] = ev.Key
		k := hashing.FoldMixed(x) // reuse the slot derivation's mix
		for j := 0; j < d; j++ {
			p := int32(s.fam.HashFolded(j, k))
			sc.pos[j*m+e] = p
			cp[j] = p
		}
	}
}

// groupRow returns an application order for one row of positions that groups
// events by cell, preserving batch order within each cell. Cells are
// independent, so inter-cell reordering never changes any counter's content —
// only the memory locality of the sweep. The order is built in O(events) with
// epoch-stamped per-column chains; no per-row clearing of width-sized arrays.
func (sc *batchScratch) groupRow(rowPos []int32, w int) []int32 {
	m := len(rowPos)
	if cap(sc.head) < w {
		sc.head = make([]int32, w)
		sc.colStamp = make([]uint32, w)
		sc.colEpoch = 0
	}
	sc.head = sc.head[:w]
	sc.colStamp = sc.colStamp[:w]
	if cap(sc.next) < m {
		sc.next = make([]int32, m)
		sc.distinct = make([]int32, m)
		sc.order = make([]int32, m)
	}
	sc.next = sc.next[:m]
	sc.distinct = sc.distinct[:m]
	sc.order = sc.order[:m]
	sc.colEpoch++
	if sc.colEpoch == 0 {
		clear(sc.colStamp)
		sc.colEpoch = 1
	}
	nd := 0
	for e := m - 1; e >= 0; e-- { // prepend while walking backwards: chains end up in batch order
		p := rowPos[e]
		if sc.colStamp[p] != sc.colEpoch {
			sc.colStamp[p] = sc.colEpoch
			sc.head[p] = -1
			sc.distinct[nd] = p
			nd++
		}
		sc.next[e] = sc.head[p]
		sc.head[p] = int32(e)
	}
	idx := 0
	for _, p := range sc.distinct[:nd] {
		for e := sc.head[p]; e >= 0; e = sc.next[e] {
			sc.order[idx] = e
			idx++
		}
	}
	return sc.order
}

// validate applies the batch clamping contract (see ecmsketch.Ingestor)
// once for the whole slice: zero ticks become 1, and every tick is clamped
// to the running maximum of the batch and to the sketch clock at entry, so
// the applied sequence is non-decreasing. It fills sc.ticks/sc.ns and
// returns the batch's high-water tick, total inserted value, and whether
// every event is a unit arrival (the dominant case, which lets the bank
// sweeps skip their multiplicity loops).
func (sc *batchScratch) validate(events []Event, clock Tick) (maxTick Tick, total uint64, allUnit bool) {
	lo := clock
	if lo == 0 {
		lo = 1 // ticks are 1-based
	}
	allUnit = true
	for e, ev := range events {
		if ev.Tick > lo {
			lo = ev.Tick
		}
		sc.ticks[e] = lo
		n := ev.N
		if n == 0 {
			n = 1
		} else if n > 1 {
			allUnit = false
		}
		sc.ns[e] = n
		total += n
	}
	return lo, total, allUnit
}

// AddBatch registers a slice of arrivals in one call. Events are applied in
// slice order under the batch clamping contract documented on
// ecmsketch.Ingestor: tick validation happens once per batch, not once per
// counter update.
//
// For the flat exponential-histogram engine the batch is the unit of work
// all the way down: each event's d cell positions are computed once (one
// key fold, d folded hashes), then updates are applied row-major straight
// into the arena, with no per-event interface dispatch.
func (s *Sketch) AddBatch(events []Event) {
	m := len(events)
	if m == 0 {
		return
	}
	sc := &s.batch
	sc.resize(m, s.d)
	maxTick, total, allUnit := sc.validate(events, s.now)
	if maxTick > s.now {
		s.now = maxTick
	}
	s.count += total
	ns := sc.ns
	if allUnit {
		ns = nil // all-unit batch: the bank sweeps skip the multiplicity loop
	}

	// Hash every event once — repeated keys once per stream of batches, via
	// the persistent key cache on deep batches — laying positions out
	// row-major so each row's sweep reads its positions sequentially...
	d := s.d
	deep := m >= groupFactor*s.w
	s.hashBatch(events, m, deep)

	if s.rw != nil {
		// Randomized waves consume identifiers, not multiplicities: every
		// unit arrival draws a fresh identifier shared by its d cells (the
		// duplicate-insensitive union depends on that sharing), so the
		// application is event-major. The memoized positions still amortize
		// the d row hashes across repeated keys and repeated multiplicities.
		for e := range events {
			t := sc.ticks[e]
			for u := uint64(0); u < sc.ns[e]; u++ {
				s.seq++
				id := hashing.Mix64(s.salt ^ s.seq)
				for j := 0; j < d; j++ {
					s.rw.AddID(j*s.w+int(sc.pos[j*m+e]), t, id)
				}
			}
		}
		return
	}

	// ...then sweep the arena row-major: row j's updates touch only cells
	// [j*w, (j+1)*w), so consecutive updates stay within one row-sized
	// region of the slabs instead of striding across the whole sketch for
	// every event.
	//
	// Key grouping is adaptive. When the batch is much wider than the row —
	// several events per column on average — a grouped order coalesces every
	// cell's arrivals into one pass over its hot header, directory and slab
	// lines, and the win grows with the collision count. Below that point the
	// grouped walk costs more than it saves (the order indirection defeats
	// the sequential streaming of the position/tick arrays), so small batches
	// apply in batch order.
	group := deep
	for j := 0; j < d; j++ {
		rowPos := sc.pos[j*m : (j+1)*m]
		if !group {
			if s.eh != nil {
				s.eh.AddBatchRow(j*s.w, rowPos, sc.ticks, ns)
			} else {
				s.dw.AddBatchRow(j*s.w, rowPos, sc.ticks, ns)
			}
			continue
		}
		order := sc.groupRow(rowPos, s.w)
		if s.eh != nil {
			s.eh.AddBatchRowOrdered(j*s.w, rowPos, sc.ticks, ns, order)
		} else {
			s.dw.AddBatchRowOrdered(j*s.w, rowPos, sc.ticks, ns, order)
		}
	}
}

// groupFactor is the average events-per-column threshold above which a
// batch counts as deep: deep batches are applied in key-grouped order and
// hash through the persistent key cache; see AddBatch and hashBatch.
const groupFactor = 4

// Snapshot returns an independent copy of the sketch, safe to query, merge
// or ship elsewhere while the original keeps ingesting.
//
// The copy is an arena clone — a few slab memcpys plus a fixed header, no
// per-counter walking — which is what makes copy-on-read stripe snapshots
// cheap enough for the sharded engine to take under a stripe lock.
func (s *Sketch) Snapshot() (*Sketch, error) {
	c := *s
	c.setBank(s.bank.Clone())
	c.batch = batchScratch{} // scratch is per-owner working memory
	return &c, nil
}
