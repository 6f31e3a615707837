package window

import (
	"math"
	"math/bits"
)

// This file implements the flat-memory exponential-histogram engine: a bank
// of EH counters whose buckets all live in one contiguous arena instead of
// one growable deque per (cell, level).
//
// A per-object exponential histogram allocates a []bucket ring per size class
// of every counter — for a d×w ECM-sketch that is thousands of tiny heap
// objects, and every Add chases counter pointer → level slice → ring buffer
// before touching a bucket. The bank replaces all of that with three slabs:
//
//	cells []ehCell  — one 32-byte record per counter (clock, total, #levels,
//	                  and the oldest bucket's level, end and span)
//	dirs  []ehLevel — the level directories: cell i's levels are the
//	                  fixed-stride run dirs[i*maxLv : i*maxLv+nLv]
//	slab  []bucket  — ring storage, carved into fixed-size chunks of
//	                  stride = capPerLv+1 buckets, one chunk per live level
//
// A level's ring can never outgrow its chunk: the EH cascade fires as soon as
// a size class exceeds capPerLv buckets, so occupancy peaks at capPerLv+1 —
// exactly the chunk size. Chunks are handed out from the end of the slab and
// never freed (an empty level keeps its chunk for refills).
//
// The algorithm is deliberately identical to the textbook per-object
// histogram kept in eh_oracle_test.go — same insert cascade, same expiry,
// same estimate arithmetic in the same order — so a bank cell and the oracle
// fed the same stream return bit-identical answers and marshal to
// byte-identical encodings. Tests assert both. The one difference is how an
// estimate finds the boundary: the oracle binary-searches every size class,
// the bank only the class that holds it, relying on bucket order, which every
// mutation keeps and UnmarshalCell enforces — and none at all when the
// boundary precedes the oldest bucket's end, which the cell header caches.
// The classes the oracle searches beyond that one add nothing (those above
// lie before the boundary) or their whole n·2^lv (those below), and the bank
// adds the same terms; every term is a multiple of ½ far below 2^53, so each
// sum is exact and the two answers are bit-identical.

// Bucket is one exponential-histogram bucket: Size arrivals whose ticks fall
// in [Start, End]. Buckets are exposed so that order-preserving aggregation
// (and serialization) can replay their contents.
type Bucket struct {
	Start Tick
	End   Tick
	Size  uint64
}

// bucket is the in-memory layout: the size is implied by the level (2^level),
// so only the boundaries are stored. Unlike the textbook formulation, each
// bucket also records the tick of its oldest arrival. This costs one extra
// word per bucket and is what enables the order-preserving aggregation of
// Section 5.1 (Theorem 4); it also lets point queries skip the half-bucket
// correction when the query boundary falls in the gap between two buckets.
type bucket struct {
	start Tick
	end   Tick
}

// ehCell is the per-counter header of a bank, one 32-byte record. While the
// cell holds buckets, (oldLv, oldEnd, oldSpan) name its globally oldest
// bucket — the front of the highest non-empty level — which is all that
// expiry and a whole-window estimate need to read.
type ehCell struct {
	total   uint64 // sum of live bucket sizes
	now     Tick   // latest tick observed by this cell
	oldEnd  Tick   // cached end of the globally oldest bucket; emptyOldEnd when none
	oldSpan uint32 // that bucket's end − start, or spanUnknown when it does not fit
	oldLv   int16  // cached level holding that bucket (highest non-empty)
	nLv     int16  // live size classes; levels [0, nLv) of the directory
}

// emptyOldEnd marks an empty cell's oldEnd cache: no bucket can ever expire
// against it, so the expiry fast path short-circuits. The zero value (a
// fresh or Reset cell) conservatively forces a recompute instead.
const emptyOldEnd = ^Tick(0)

// spanUnknown marks an oldest bucket spanning 2^32−1 ticks or more, whose
// start the header cannot hold; estimates over such a cell take the walk.
const spanUnknown = ^uint32(0)

// spanOf is the oldSpan cache value of a bucket [start, end].
func spanOf(start, end Tick) uint32 {
	if d := end - start; d < Tick(spanUnknown) {
		return uint32(d)
	}
	return spanUnknown
}

// ehLevel locates one size class's ring inside the slab.
type ehLevel struct {
	off  int32  // ring storage: slab[off : off+stride]
	head uint16 // offset of the oldest bucket within the ring
	n    uint16 // live buckets in the ring
}

// EHBank is a bank of n exponential histograms (Datar, Gionis, Indyk,
// Motwani) backed by one contiguous bucket arena. Each cell maintains buckets
// of exponentially increasing sizes; at most k/2+2 buckets exist per size
// class, where k = ⌈1/ε⌉, which bounds the relative error of any suffix query
// by ε: the only uncertain contribution is the oldest, partially overlapping
// bucket, whose size is at most an ε fraction of the arrivals after it
// (invariant 1 of the paper). Cells are addressed by index; an ECM-sketch
// lays its d×w counters out row-major and addresses cell j*w+i.
//
// EHBank is not safe for concurrent use.
type EHBank struct {
	bankCore
	capPerLv int // merge threshold per size class: ⌈k/2⌉+2
	stride   int // ring capacity per level chunk: capPerLv+1
	maxLv    int // directory stride; grows (rarely) when any cell exceeds it
	cells    []ehCell
	dirs     []ehLevel
	slab     []bucket

	merger runMerger     // MergeCellFrom's scratch; never cloned
	replay []replayPoint // MergeCellFrom's drained replay; never cloned
}

// NewEHBank constructs a bank of n empty exponential histograms, each with
// relative error cfg.Epsilon over a window of cfg.Length ticks.
func NewEHBank(cfg Config, n int) (*EHBank, error) {
	core, err := newBankCore(AlgoEH, cfg, n)
	if err != nil {
		return nil, err
	}
	k := int(math.Ceil(1 / cfg.Epsilon))
	capPerLv := (k+1)/2 + 2
	const initialMaxLv = 4
	return &EHBank{
		bankCore: core,
		capPerLv: capPerLv,
		stride:   capPerLv + 1,
		maxLv:    initialMaxLv,
		cells:    make([]ehCell, n),
		dirs:     make([]ehLevel, n*initialMaxLv),
	}, nil
}

// level returns the lv-th size class of cell i; it must exist.
func (b *EHBank) level(i, lv int) *ehLevel { return &b.dirs[i*b.maxLv+lv] }

// at returns the j-th bucket (from the oldest) of a level's ring.
func (b *EHBank) at(d *ehLevel, j int) bucket {
	p := int(d.head) + j
	if p >= b.stride {
		p -= b.stride
	}
	return b.slab[int(d.off)+p]
}

func (b *EHBank) pushBack(d *ehLevel, bk bucket) {
	p := int(d.head) + int(d.n)
	if p >= b.stride {
		p -= b.stride
	}
	b.slab[int(d.off)+p] = bk
	d.n++
}

func (b *EHBank) popFront(d *ehLevel) bucket {
	bk := b.slab[int(d.off)+int(d.head)]
	d.head++
	if int(d.head) == b.stride {
		d.head = 0
	}
	d.n--
	return bk
}

// front returns the oldest bucket of a level's ring.
func (b *EHBank) front(d *ehLevel) bucket {
	return b.slab[int(d.off)+int(d.head)]
}

// searchEndAfter returns the index (from the front) of the oldest bucket of
// the level with end > s, or d.n if none.
func (b *EHBank) searchEndAfter(d *ehLevel, s Tick) int {
	lo, hi := 0, int(d.n)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.at(d, mid).end > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// addLevel appends one size class to cell i, carving a fresh chunk from the
// end of the slab.
func (b *EHBank) addLevel(i int) {
	c := &b.cells[i]
	if int(c.nLv) == b.maxLv {
		b.growDirs()
	}
	need := len(b.slab) + b.stride
	if cap(b.slab) >= need {
		// Reslicing may expose stale buckets from before a Reset; harmless,
		// since ring entries are always written before they are read.
		b.slab = b.slab[:need]
	} else {
		grown := make([]bucket, need, need*2)
		copy(grown, b.slab)
		b.slab = grown
	}
	b.dirs[i*b.maxLv+int(c.nLv)] = ehLevel{off: int32(need - b.stride)}
	c.nLv++
}

// growDirs doubles the per-cell directory stride, re-laying the directory
// slab out. This happens O(log log total) times over a bank's lifetime.
func (b *EHBank) growDirs() {
	newMax := b.maxLv * 2
	nd := make([]ehLevel, len(b.cells)*newMax)
	for i := range b.cells {
		copy(nd[i*newMax:], b.dirs[i*b.maxLv:i*b.maxLv+int(b.cells[i].nLv)])
	}
	b.dirs = nd
	b.maxLv = newMax
}

// Add registers one arrival at tick t in cell i.
func (b *EHBank) Add(i int, t Tick) { b.AddN(i, t, 1) }

// AddN registers n simultaneous arrivals at tick t in cell i: ticks are
// 1-based, slight regressions are clamped to the cell's clock, and — the
// histogram's canonical form requires power-of-two bucket sizes — the n
// arrivals insert as n unit buckets, with cascading merges keeping the
// amortized cost per unit constant.
func (b *EHBank) AddN(i int, t Tick, n uint64) {
	if n == 0 {
		b.Advance(i, t)
		return
	}
	c := &b.cells[i]
	if t == 0 {
		t = 1 // ticks are 1-based; tick 0 means "before the stream"
	}
	if t < c.now {
		t = c.now // clamp slight out-of-order arrivals
	}
	c.now = t
	if c.total == 0 {
		// The unit about to be inserted becomes the globally oldest bucket.
		c.oldEnd, c.oldSpan, c.oldLv = t, 0, 0
	}
	if c.nLv == 0 {
		b.addLevel(i)
	}
	for u := uint64(0); u < n; u++ {
		// Inlined unit insert into level 0; the cascade fires only when the
		// class actually overflows (roughly every other insert).
		d := &b.dirs[i*b.maxLv]
		p := int(d.head) + int(d.n)
		if p >= b.stride {
			p -= b.stride
		}
		b.slab[int(d.off)+p] = bucket{start: t, end: t}
		d.n++
		c.total++
		if int(d.n) > b.capPerLv {
			b.cascade(i, c, 0)
		}
	}
	b.noteCellMutation(i)
	b.expire(c, i)
}

// AddBatchRow applies one row of a validated batch: event e inserts ns[e]
// arrivals at ticks[e] into cell base+pos[e]. A nil ns means every event is
// a unit arrival, letting the sweep skip the multiplicity loop entirely.
// Ticks must already be non-decreasing and ≥ 1, and multiplicities ≥ 1 (the
// engine-level batch validation guarantees this). Events are visited in
// batch order, or in order's (a permutation grouping each cell's events, in
// batch order, so one cell's touches reuse its hot lines). The body is AddN
// inlined, one event per iteration; expiry and version stamping run once per
// event, exactly where AddN runs them, so bucket structure and delta-cursor
// versions stay byte-identical to the sequential path.
func (b *EHBank) AddBatchRow(base int, pos []int32, ticks []Tick, ns []uint64, order []int32) {
	stride := b.stride
	capLv := b.capPerLv
	winLen := b.cfg.Length
	cells := b.cells
	maxLv := b.maxLv
	dirs := b.dirs
	slab := b.slab
	for k := range pos {
		e := k
		if order != nil {
			e = int(order[k])
		}
		i := base + int(pos[e])
		c := &cells[i]
		t := ticks[e]
		if t < c.now {
			t = c.now // clamp slight out-of-order arrivals, as AddN does
		}
		c.now = t
		if c.total == 0 {
			c.oldEnd, c.oldSpan, c.oldLv = t, 0, 0
		}
		if c.nLv == 0 {
			b.addLevel(i)
			maxLv, dirs, slab = b.maxLv, b.dirs, b.slab
		}
		d := &dirs[i*maxLv]
		n := uint64(1)
		if ns != nil {
			n = ns[e]
		}
		for {
			pp := int(d.head) + int(d.n)
			if pp >= stride {
				pp -= stride
			}
			slab[int(d.off)+pp] = bucket{start: t, end: t}
			d.n++
			c.total++
			if int(d.n) > capLv {
				// Most cascades are a single level-0→1 merge that propagates
				// no further (level 1 overflows only every ~capLv merges);
				// that case runs inline without touching slab/dirs pointers.
				nx := (*ehLevel)(nil)
				if int(c.nLv) >= 2 {
					nx = &dirs[i*maxLv+1]
				}
				if nx != nil && int(nx.n) < capLv {
					start, end := mergeOldest(d, nx, slab, stride)
					if c.oldLv == 0 {
						c.oldEnd, c.oldSpan, c.oldLv = end, spanOf(start, end), 1
					}
				} else {
					b.cascade(i, c, 0)
					maxLv, dirs, slab = b.maxLv, b.dirs, b.slab
					d = &dirs[i*maxLv]
				}
			}
			if n--; n == 0 {
				break
			}
		}
		b.noteCellMutation(i)
		if t >= winLen && c.oldEnd <= t-winLen {
			// Inline of expire's no-op fast path: only call when the oldest
			// bucket's end has actually left the window.
			b.expire(c, i)
		}
	}
}

// mergeOldest pops the two oldest buckets of ring d and pushes their union
// onto ring nx, returning the union's start and end. Small enough to inline
// into AddBatchRow's single-level fast path.
func mergeOldest(d, nx *ehLevel, slab []bucket, stride int) (start, end Tick) {
	p0 := int(d.head)
	p1 := p0 + 1
	if p1 >= stride {
		p1 -= stride
	}
	off := int(d.off)
	older := slab[off+p0]
	newer := slab[off+p1]
	h := p1 + 1
	if h >= stride {
		h -= stride
	}
	d.head = uint16(h)
	d.n -= 2
	pp := int(nx.head) + int(nx.n)
	if pp >= stride {
		pp -= stride
	}
	slab[int(nx.off)+pp] = bucket{start: older.start, end: newer.end}
	nx.n++
	return older.start, newer.end
}

// cascade merges the two oldest buckets of any size class exceeding its
// budget into one bucket of the next class, starting at level from.
//
// The loop fires roughly once per insert amortized, so it stays lean: the
// directory base is strength-reduced out of the level lookups and the
// next-level push is ring arithmetic inline, with pointers re-resolved only
// on the rare paths that may move the directory or the slab.
func (b *EHBank) cascade(i int, c *ehCell, from int) {
	db := i * b.maxLv
	stride := b.stride
	for lv := from; lv < int(c.nLv); lv++ {
		d := &b.dirs[db+lv]
		if int(d.n) <= b.capPerLv {
			break
		}
		if lv+1 == int(c.nLv) {
			b.addLevel(i) // may re-lay the directory out (growDirs)
			db = i * b.maxLv
			d = &b.dirs[db+lv]
		}
		nx := &b.dirs[db+lv+1]
		if int(nx.n) >= stride {
			// Full rings only occur while restoring corrupt encodings.
			b.ensureRoom(i, c, lv+1)
			db = i * b.maxLv
			d = &b.dirs[db+lv]
			nx = &b.dirs[db+lv+1]
		}
		start, end := mergeOldest(d, nx, b.slab, stride)
		if lv+1 > int(c.oldLv) {
			// The merge consumed the two globally oldest buckets (lv was the
			// oldest level) and their union, just pushed into the previously
			// empty level above, is the new globally oldest bucket.
			c.oldEnd, c.oldSpan, c.oldLv = end, spanOf(start, end), int16(lv+1)
		}
	}
}

// ensureRoom guarantees level lv of cell i can absorb one push. Levels are
// full only while restoring corrupt encodings (normal cascades peak at
// exactly the ring capacity after their push); room is made the same way a
// cascade would, merging the two oldest buckets upward.
func (b *EHBank) ensureRoom(i int, c *ehCell, lv int) {
	if int(b.level(i, lv).n) < b.stride {
		return
	}
	if lv+1 == int(c.nLv) {
		b.addLevel(i)
	}
	b.ensureRoom(i, c, lv+1)
	d := b.level(i, lv)
	older := b.popFront(d)
	newer := b.popFront(d)
	b.pushBack(b.level(i, lv+1), bucket{start: older.start, end: newer.end})
}

// expire drops buckets of cell i whose newest arrival left the window,
// reporting whether any bucket was actually dropped. The cached oldEnd
// short-circuits the common case — nothing to expire — without touching
// the level directory or the slab.
func (b *EHBank) expire(c *ehCell, i int) bool {
	if c.now < b.cfg.Length {
		return false
	}
	cut := c.now - b.cfg.Length // ticks ≤ cut are outside the window
	if c.oldEnd > cut {
		return false
	}
	popped := false
	for {
		lv := b.oldestLevel(i, c)
		if lv < 0 {
			c.oldLv = 0
			c.oldEnd = emptyOldEnd
			return popped
		}
		c.oldLv = int16(lv)
		d := b.level(i, lv)
		f := b.front(d)
		if f.end > cut {
			c.oldEnd, c.oldSpan = f.end, spanOf(f.start, f.end)
			return popped
		}
		b.popFront(d)
		c.total -= uint64(1) << uint(lv)
		popped = true
	}
}

// oldestLevel returns the highest non-empty level of cell i, which holds
// the globally oldest bucket, or -1 when the cell is empty. The cached
// oldLv bounds the scan: levels above it are always empty.
func (b *EHBank) oldestLevel(i int, c *ehCell) int {
	for lv := int(c.oldLv); lv >= 0; lv-- {
		if b.level(i, lv).n > 0 {
			return lv
		}
	}
	return -1
}

// Advance moves cell i's window to tick t, expiring old buckets, and reports
// whether any bucket was dropped.
func (b *EHBank) Advance(i int, t Tick) bool {
	c := &b.cells[i]
	if t > c.now {
		c.now = t
	}
	return b.expire(c, i)
}

// Now reports the latest tick observed by cell i.
func (b *EHBank) Now(i int) Tick { return b.cells[i].now }

// Total reports the exact sum of cell i's live bucket sizes. The oldest
// bucket may partially precede the window, so Total can exceed the true
// window count by up to that bucket's size.
func (b *EHBank) Total(i int) uint64 { return b.cells[i].total }

// EstimateSince estimates the number of arrivals in cell i with tick > since.
// Buckets fully inside the range are counted exactly; the oldest bucket
// overlapping the boundary contributes half its size.
//
// When since lies before the end of the globally oldest bucket — every
// whole-window read — every bucket ends after since, so the header answers
// alone: total, less half the oldest bucket if it starts at or before since
// (the textbook TOTAL − LAST/2). Otherwise every cell is tick-ordered along
// its level walk (see canonicalEHBucket), so one binary search answers: the
// first class, from the top, whose newest bucket ends after since holds the
// boundary; the classes above lie wholly before it and every bucket below
// lies after it. Both paths add the same terms, each a multiple of ½ far
// below 2^53, so they return bit-identical answers.
func (b *EHBank) EstimateSince(i int, since Tick) float64 {
	c := &b.cells[i]
	if c.total == 0 {
		return 0
	}
	// Clamp the query to the window.
	if c.now >= b.cfg.Length {
		if ws := c.now - b.cfg.Length; since < ws {
			since = ws
		}
	}
	if since < c.oldEnd && c.oldSpan != spanUnknown {
		est := float64(c.total)
		if c.oldEnd-Tick(c.oldSpan) <= since {
			est -= float64(uint64(1)<<uint(c.oldLv)) / 2
		}
		return est
	}
	lv := int(c.nLv) - 1
	var d *ehLevel
	for ; lv >= 0; lv-- {
		d = b.level(i, lv)
		if d.n > 0 && b.at(d, int(d.n)-1).end > since {
			break
		}
	}
	if lv < 0 {
		return 0
	}
	idx := b.searchEndAfter(d, since)
	cnt := int(d.n) - idx
	size := float64(uint64(1) << uint(lv))
	est := 0.0
	if b.at(d, idx).start <= since {
		est += size / 2
		cnt--
	}
	est += float64(cnt) * size
	for lv--; lv >= 0; lv-- {
		est += float64(b.level(i, lv).n) * float64(uint64(1)<<uint(lv))
	}
	return est
}

// EstimateRange estimates arrivals in cell i within the last r ticks.
func (b *EHBank) EstimateRange(i int, r Tick) float64 {
	r = clampRange(r, b.cfg.Length)
	return b.EstimateSince(i, rangeToSince(b.cells[i].now, r))
}

// NumBuckets reports the number of live buckets in cell i.
func (b *EHBank) NumBuckets(i int) int {
	c := &b.cells[i]
	n := 0
	for lv := 0; lv < int(c.nLv); lv++ {
		n += int(b.level(i, lv).n)
	}
	return n
}

// Buckets returns a snapshot of cell i's live buckets, oldest to newest.
func (b *EHBank) Buckets(i int) []Bucket {
	dst := make([]Bucket, 0, b.NumBuckets(i))
	c := &b.cells[i]
	for lv := int(c.nLv) - 1; lv >= 0; lv-- {
		d := b.level(i, lv)
		size := uint64(1) << uint(lv)
		for j := 0; j < int(d.n); j++ {
			bk := b.at(d, j)
			dst = append(dst, Bucket{Start: bk.start, End: bk.end, Size: size})
		}
	}
	return dst
}

// NormalizeRestored re-checks cell i's class budgets after UnmarshalCell;
// decoded histograms are already canonical, so for valid inputs this is a
// no-op walk that repairs corrupt inputs instead of violating invariants.
// It also rebuilds the expiry cache, which decoding leaves stale.
func (b *EHBank) NormalizeRestored(i int) {
	c := &b.cells[i]
	for lv := 0; lv < int(c.nLv); lv++ {
		if int(b.level(i, lv).n) > b.capPerLv {
			b.cascade(i, c, lv)
		}
	}
	c.oldLv = int16(int(c.nLv) - 1)
	if c.oldLv < 0 {
		c.oldLv = 0
	}
	if lv := b.oldestLevel(i, c); lv >= 0 {
		f := b.front(b.level(i, lv))
		c.oldEnd, c.oldSpan, c.oldLv = f.end, spanOf(f.start, f.end), int16(lv)
	} else {
		c.oldLv = 0
		c.oldEnd = emptyOldEnd
	}
}

// MergeCellFrom performs the order-preserving aggregation EH⊕ = EH1 ⊕ ... ⊕
// EHn of Section 5.1 (Theorem 4) from the inputs' cell src into cell i of b,
// which must be empty: each input bucket of size s contributes ⌈s/2⌉ arrivals
// at its start tick and ⌊s/2⌋ at its end tick, replayed in global tick order;
// now then advances the cell's clock to the inputs' high-water tick. If the
// inputs were built with error ε and b with error ε′, the merged cell answers
// any suffix query with relative error at most ε + ε′ + εε′
// (MergedRelativeError). Only time-based histograms can be aggregated:
// count-based ones do not retain the order of the zero bits of the combined
// stream (Figure 2 of the paper); callers reject them.
//
// The source index is decoupled from the destination so that a worker
// merging a chunk of a larger bank into a chunk-sized private scratch bank
// can address its scratch cells 0..n-1 while reading the inputs at their
// global indices; the replay is identical to one where the indices coincide.
// The inputs' rings are streamed in place through the bank's run merger —
// nothing is allocated per cell.
//
// The result is the cell that AddN would leave after the replayed events,
// one call per event, but it is not built that way. Until expiry first pops
// a bucket, a cell's shape depends only on its arrival count (layOutReplay),
// so the replay is drained into b.replay, the prefix up to the first expiry
// (firstExpiry) is laid out in one pass at the cost of its buckets, and only
// the events after it go through AddN.
func (b *EHBank) MergeCellFrom(i, src int, now Tick, inputs []*EHBank) {
	m := &b.merger
	m.begin(len(inputs))
	most := 0 // events the replay can hold: two per input bucket
	for _, in := range inputs {
		m.addCell(in, src)
		most += 2 * in.NumBuckets(src)
	}
	if cap(b.replay) < most {
		b.replay = make([]replayPoint, 0, 2*most)
	}
	ev := b.replay[:0]
	t, cum := max(b.cells[i].now, 1), uint64(0)
	for et, n, ok := m.next(); ok; et, n, ok = m.next() {
		t = max(t, et) // AddN's clamps: ticks are ≥ 1 and never regress
		cum += n
		ev = append(ev, replayPoint{t: t, cum: cum})
	}
	b.replay = ev
	if len(ev) > 0 {
		k := b.firstExpiry(ev)
		b.layOutReplay(i, ev[:k+1])
		b.expire(&b.cells[i], i)
		for k++; k < len(ev); k++ {
			b.AddN(i, ev[k].t, ev[k].cum-ev[k-1].cum)
		}
	}
	b.Advance(i, now)
}

// replayPoint is one drained replay event: its clamped tick and the arrival
// count of the replay up to and including it.
type replayPoint struct {
	t   Tick
	cum uint64
}

// minTotalAtLevel returns the fewest arrivals after which a cell that has
// expired nothing holds a bucket of size class lv: (2^lv − 1)·capPerLv + 1,
// saturating.
func (b *EHBank) minTotalAtLevel(lv int) uint64 {
	hi, lo := bits.Mul64(uint64(1)<<uint(lv)-1, uint64(b.capPerLv))
	if hi != 0 || lo == math.MaxUint64 {
		return math.MaxUint64
	}
	return lo + 1
}

// firstExpiry returns the index of the first replay event after which AddN's
// expiry would pop a bucket, or the last index when none would. Until then
// the oldest bucket is the front of the top size class L, which covers the
// replay's first 2^L arrivals (layOutReplay), so it ends at the tick of
// arrival 2^L − 1; L grows with the arrival count alone.
func (b *EHBank) firstExpiry(ev []replayPoint) int {
	w := b.cfg.Length
	last := len(ev) - 1
	if ev[last].t < w || ev[last].t-w < ev[0].t {
		return last // no event's cut reaches the replay's first tick
	}
	lv, grow := 0, b.minTotalAtLevel(1)
	u := 0 // the event that holds arrival 2^lv − 1
	for k, e := range ev {
		for e.cum >= grow {
			lv++
			grow = b.minTotalAtLevel(lv + 1)
		}
		for ev[u].cum < uint64(1)<<uint(lv) {
			u++
		}
		if e.t >= w && ev[u].t <= e.t-w {
			return k
		}
	}
	return last
}

// layOutReplay writes into empty cell i what replaying ev through AddN would
// leave there, given that no expiry pops a bucket along the way. Such a
// cell's shape depends only on its arrival count M: size class ℓ receives
// p_ℓ pushes (p_0 = M), merges its two oldest buckets m_ℓ = ⌊(p_ℓ − capPerLv
// + 1)/2⌋ times once p_ℓ exceeds capPerLv (else never), keeps the newest
// n_ℓ = p_ℓ − 2m_ℓ and pushes p_ℓ₊₁ = m_ℓ into the class above. Read from
// the top class down, the buckets tile arrivals [0, M) in replay order, and
// the one covering [a, a+2^ℓ) runs from the tick of arrival a to that of
// arrival a+2^ℓ−1. Rings are written from slot 0; the header and the version
// stamps come out as the per-event path leaves them.
func (b *EHBank) layOutReplay(i int, ev []replayPoint) {
	var keep [64]int
	top := 0
	for p := ev[len(ev)-1].cum; ; top++ {
		var merges uint64
		if p > uint64(b.capPerLv) {
			merges = (p - uint64(b.capPerLv) + 1) / 2
		}
		keep[top] = int(p - 2*merges)
		if merges == 0 {
			break
		}
		p = merges
	}
	c := &b.cells[i]
	for int(c.nLv) <= top {
		b.addLevel(i)
	}
	slab := b.slab
	dirs := b.dirs[i*b.maxLv:]
	a, k := uint64(0), 0 // next arrival to cover; the event that holds it
	for lv := top; lv >= 0; lv-- {
		d := &dirs[lv]
		d.head, d.n = 0, uint16(keep[lv])
		size := uint64(1) << uint(lv)
		ring := slab[d.off:][:keep[lv]]
		for j := range ring {
			for ev[k].cum <= a {
				k++
			}
			start := ev[k].t
			a += size
			for ev[k].cum < a {
				k++
			}
			ring[j] = bucket{start: start, end: ev[k].t}
		}
	}
	old := slab[dirs[top].off]
	*c = ehCell{
		total:   ev[len(ev)-1].cum,
		now:     ev[len(ev)-1].t,
		oldEnd:  old.end,
		oldSpan: spanOf(old.start, old.end),
		oldLv:   int16(top),
		nLv:     c.nLv,
	}
	b.version += uint64(len(ev))
	b.vers[i] = b.version
}

// ReserveMerge presizes the arena for n MergeCellFrom calls, the j-th from the
// inputs' cell src(j), so the replay does not regrow (and re-clear) the slab
// by doublings. A merged cell carries at most k times the mass of its deepest
// input, so it needs about that input's size classes plus ⌈log₂ k⌉; a cell
// that needs more grows the slab as any other does.
func (b *EHBank) ReserveMerge(inputs []*EHBank, n int, src func(j int) int) {
	extra := bits.Len(uint(len(inputs) - 1))
	levels := 0
	for j := 0; j < n; j++ {
		deepest := 0
		for _, in := range inputs {
			deepest = max(deepest, int(in.cells[src(j)].nLv))
		}
		if deepest > 0 {
			levels += deepest + extra
		}
	}
	if need := len(b.slab) + levels*b.stride; cap(b.slab) < need {
		grown := make([]bucket, len(b.slab), need)
		copy(grown, b.slab)
		b.slab = grown
	}
}

// Clone returns an independent deep copy of the bank: cost is proportional
// to the arena footprint, not to the number of counters or buckets.
func (b *EHBank) Clone() Bank {
	c := *b
	c.bankCore = b.bankCore.clone()
	c.cells = cloneExact(b.cells)
	c.dirs = cloneExact(b.dirs)
	c.slab = cloneExact(b.slab)
	c.merger, c.replay = runMerger{}, nil
	return &c
}

// MemoryBytes reports the heap footprint of the whole bank: the flat slabs,
// plus a small fixed header.
func (b *EHBank) MemoryBytes() int {
	const (
		cellBytes   = 32 // ehCell: total, now, oldEnd (8 B each), oldSpan (4 B), oldLv, nLv (2 B each)
		levelBytes  = 8  // ehLevel: off + head + n
		bucketBytes = 16 // two 8-byte ticks; size implied by the level
		verBytes    = 8  // per-cell last-modified version
	)
	return 96 + len(b.cells)*(cellBytes+verBytes) + len(b.dirs)*levelBytes + cap(b.slab)*bucketBytes
}

// CellUntouched reports whether cell i holds no retained content: no live
// buckets (never touched, or everything expired). Together with the cell
// clock this is the sparse-baseline elision predicate — an untouched cell at
// the sketch clock encodes byte-identically to a fresh cell advanced there,
// so a baseline need not ship it.
func (b *EHBank) CellUntouched(i int) bool {
	return b.cells[i].total == 0
}

// ResetCell empties cell i, keeping its carved level chunks for refills —
// the receiving half of a delta application replaces a changed cell by
// resetting it and decoding the shipped encoding into the empty cell.
func (b *EHBank) ResetCell(i int) {
	c := &b.cells[i]
	for lv := 0; lv < int(c.nLv); lv++ {
		d := b.level(i, lv)
		d.head, d.n = 0, 0
	}
	*c = ehCell{nLv: c.nLv}
	b.noteCellMutation(i)
}

// Reset empties every cell, keeping the configuration and retaining the
// arena's capacity for refills.
func (b *EHBank) Reset() {
	for i := range b.cells {
		b.cells[i] = ehCell{}
	}
	for i := range b.dirs {
		b.dirs[i] = ehLevel{}
	}
	b.slab = b.slab[:0]
	b.noteAllMutated()
}
