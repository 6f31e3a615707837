package window

import (
	"fmt"
	"math"
	"math/bits"
)

// This file implements the flat-memory deterministic-wave engine: a bank of
// DW counters whose level rings all live in one contiguous arena, mirroring
// the EHBank layout (see arena.go for the design rationale).
//
// The per-object layout (type DW) eagerly allocates a full-capacity
// []waveEntry ring per level of every counter — for a d×w ECM-sketch that is
// thousands of heap objects sized for the worst case up front. The bank
// replaces them with three slabs:
//
//	cells []dwCell  — one fixed-size record per counter (clock, rank, expiry cache)
//	dirs  []dwLevel — the level directories: cell i's levels are the
//	                  fixed-stride run dirs[i*nLv : (i+1)*nLv]
//	slab  []waveEntry — ring storage, carved lazily into fixed-size chunks of
//	                  c entries, one chunk per level on its first push
//
// Unlike EH, a wave's level structure is fixed at construction (waveLevels of
// the configured upper bound), so the directory never grows; and unlike the
// per-object wave, chunks are carved only when a level first stores an entry,
// so sparse cells cost three directory words instead of the worst case.
//
// The algorithm is deliberately identical to type DW — same rank-driven level
// insertion, same expiry, same estimate arithmetic in the same order — so a
// bank cell and a DW fed the same stream return bit-identical answers and
// marshal to byte-identical encodings. Tests assert both.

// dwCell is the per-counter header of a deterministic-wave bank.
type dwCell struct {
	rank   uint64 // arrivals since the beginning of the stream
	now    Tick   // latest tick observed by this cell
	oldEnd Tick   // conservative lower bound on the earliest stored tick
}

// dwLevel locates one wave level's ring inside the slab. off < 0 marks a
// level whose chunk has not been carved yet.
type dwLevel struct {
	off     int32
	head    uint16
	n       uint16
	evicted bool // true once an entry has ever been displaced by capacity
}

// DWBank is a bank of n deterministic-wave counters backed by one contiguous
// entry arena. Cells are addressed by index; an ECM-sketch lays its d×w
// counters out row-major and addresses cell j*w+i.
//
// DWBank is not safe for concurrent use.
type DWBank struct {
	cfg   Config
	c     int // capacity per level: ⌈1/ε⌉+2
	nLv   int // levels per cell (L+1), fixed by cfg at construction
	cells []dwCell
	dirs  []dwLevel
	slab  []waveEntry

	// version counts arrival-content mutations of the whole bank, and
	// vers[i] records the bank version at cell i's last such mutation —
	// identical change-tracking semantics to EHBank: expiry and Advance do
	// not bump, they are replayed by the receiver advancing to the same tick.
	version uint64
	vers    []uint64

	merger runMerger // MergeCellFrom's scratch; never cloned
}

// NewDWBank constructs a bank of n empty deterministic waves, each with
// relative error cfg.Epsilon over a window of cfg.Length ticks, sized for
// cfg.UpperBound arrivals per window.
func NewDWBank(cfg Config, n int) (*DWBank, error) {
	if err := cfg.Validate(AlgoDW); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("window: bank size must be positive, got %d", n)
	}
	c := int(math.Ceil(1/cfg.Epsilon)) + 2
	L := waveLevels(cfg.UpperBound, c)
	b := &DWBank{
		cfg:   cfg,
		c:     c,
		nLv:   L + 1,
		cells: make([]dwCell, n),
		dirs:  make([]dwLevel, n*(L+1)),
		vers:  make([]uint64, n),
	}
	for i := range b.dirs {
		b.dirs[i].off = -1
	}
	return b, nil
}

// Version reports the bank's arrival-mutation counter (see EHBank.Version).
func (b *DWBank) Version() uint64 { return b.version }

// CellChangedSince reports whether cell i's content changed by arrival after
// bank version since.
func (b *DWBank) CellChangedSince(i int, since uint64) bool { return b.vers[i] > since }

// noteCellMutation stamps cell i as changed at a fresh bank version.
func (b *DWBank) noteCellMutation(i int) {
	b.version++
	b.vers[i] = b.version
}

// VersionVector exports the bank's change-tracking state for durable
// snapshots (see EHBank.VersionVector). The returned slice is a copy.
func (b *DWBank) VersionVector() (uint64, []uint64) {
	return b.version, append([]uint64(nil), b.vers...)
}

// RestoreVersionVector installs previously exported change-tracking state.
func (b *DWBank) RestoreVersionVector(version uint64, vers []uint64) error {
	if len(vers) != len(b.vers) {
		return fmt.Errorf("window: version vector has %d cells, bank has %d", len(vers), len(b.vers))
	}
	for i, v := range vers {
		if v > version {
			return fmt.Errorf("window: cell %d version %d exceeds bank version %d", i, v, version)
		}
	}
	b.version = version
	copy(b.vers, vers)
	return nil
}

// Config returns the shared configuration of the bank's cells.
func (b *DWBank) Config() Config { return b.cfg }

// Len reports the number of cells.
func (b *DWBank) Len() int { return len(b.cells) }

// Levels reports the number of levels per cell.
func (b *DWBank) Levels() int { return b.nLv }

// carve hands the level a fresh chunk of c entries from the end of the slab.
func (b *DWBank) carve(d *dwLevel) {
	need := len(b.slab) + b.c
	if cap(b.slab) >= need {
		// Reslicing may expose stale entries from before a Reset; harmless,
		// since ring entries are always written before they are read.
		b.slab = b.slab[:need]
	} else {
		grown := make([]waveEntry, need, need*2)
		copy(grown, b.slab)
		b.slab = grown
	}
	d.off = int32(need - b.c)
}

// waveAt returns the j-th entry (from the oldest) of a level's ring.
func (b *DWBank) waveAt(d *dwLevel, j int) waveEntry {
	p := int(d.head) + j
	if p >= b.c {
		p -= b.c
	}
	return b.slab[int(d.off)+p]
}

// waveFront returns the oldest entry of a level's ring.
func (b *DWBank) waveFront(d *dwLevel) waveEntry {
	return b.slab[int(d.off)+int(d.head)]
}

func (b *DWBank) wavePush(d *dwLevel, e waveEntry) {
	if d.off < 0 {
		b.carve(d)
	}
	if int(d.n) == b.c {
		h := int(d.head) + 1
		if h == b.c {
			h = 0
		}
		d.head = uint16(h)
		d.n--
		d.evicted = true
	}
	p := int(d.head) + int(d.n)
	if p >= b.c {
		p -= b.c
	}
	b.slab[int(d.off)+p] = e
	d.n++
}

func (b *DWBank) wavePop(d *dwLevel) {
	h := int(d.head) + 1
	if h == b.c {
		h = 0
	}
	d.head = uint16(h)
	d.n--
}

// waveSearchTickAfter returns the index (from the front) of the oldest entry
// of the level with t > s, or n if none.
func (b *DWBank) waveSearchTickAfter(d *dwLevel, s Tick) int {
	lo, hi := 0, int(d.n)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.waveAt(d, mid).t > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Add registers one arrival at tick t in cell i.
func (b *DWBank) Add(i int, t Tick) { b.AddN(i, t, 1) }

// AddN registers n arrivals at tick t in cell i. The semantics mirror DW.AddN
// exactly: ticks are 1-based, slight regressions are clamped to the cell's
// clock, each arrival increments the rank and inserts into levels 0..tz(rank),
// and expiry runs after every arrival (so capacity-eviction flags match the
// per-object wave bit for bit).
func (b *DWBank) AddN(i int, t Tick, n uint64) {
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
	top := uint(b.nLv - 1)
	base := i * b.nLv
	for u := uint64(0); u < n; u++ {
		c.rank++
		tz := uint(bits.TrailingZeros64(c.rank))
		if tz > top {
			tz = top
		}
		e := waveEntry{t: t, rank: c.rank}
		for j := uint(0); j <= tz; j++ {
			b.wavePush(&b.dirs[base+int(j)], e)
		}
		if c.oldEnd > t {
			c.oldEnd = t // newly stored entry may now be the earliest
		}
		b.expire(i, c)
	}
	b.noteCellMutation(i)
}

// AddBatchRow applies one row of a validated batch: event e inserts ns[e]
// arrivals at ticks[e] into cell base+pos[e]. A nil ns means every event is
// a unit arrival. See EHBank.AddBatchRow.
func (b *DWBank) AddBatchRow(base int, pos []int32, ticks []Tick, ns []uint64) {
	for e, p := range pos {
		n := uint64(1)
		if ns != nil {
			n = ns[e]
		}
		b.AddN(base+int(p), ticks[e], n)
	}
}

// AddBatchRowOrdered applies one row of a validated batch in the grouped
// order named by order (indices into pos/ticks/ns, sorted by cell position):
// consecutive touches of the same cell reuse the hot cache lines. A nil ns
// means every event is a unit arrival. Grouping is semantics-preserving
// because cells are independent and the stable sort keeps each cell's
// arrivals in batch order.
func (b *DWBank) AddBatchRowOrdered(base int, pos []int32, ticks []Tick, ns []uint64, order []int32) {
	for _, e := range order {
		n := uint64(1)
		if ns != nil {
			n = ns[e]
		}
		b.AddN(base+int(pos[e]), ticks[e], n)
	}
}

// expire drops entries of cell i that left the window, reporting whether
// any entry was actually dropped. The cached oldEnd lower bound
// short-circuits the common case — nothing to expire — without scanning
// the level directory.
func (b *DWBank) expire(i int, c *dwCell) bool {
	if c.now < b.cfg.Length {
		return false
	}
	cut := c.now - b.cfg.Length
	if c.oldEnd > cut {
		return false
	}
	base := i * b.nLv
	oldest := emptyOldEnd
	popped := false
	for j := 0; j < b.nLv; j++ {
		d := &b.dirs[base+j]
		for d.n > 0 && b.waveFront(d).t <= cut {
			b.wavePop(d)
			popped = true
		}
		if d.n > 0 {
			if f := b.waveFront(d).t; f < oldest {
				oldest = f
			}
		}
	}
	c.oldEnd = oldest
	return popped
}

// Advance moves cell i's window to tick t, expiring old entries.
func (b *DWBank) Advance(i int, t Tick) {
	c := &b.cells[i]
	if t > c.now {
		c.now = t
	}
	b.expire(i, c)
}

// AdvanceAll moves every cell's window to tick t.
func (b *DWBank) AdvanceAll(t Tick) {
	for i := range b.cells {
		b.Advance(i, t)
	}
}

// AdvanceAllNoting moves every cell's window to tick t like AdvanceAll and
// calls note(i) for each cell whose retained content the move actually
// changed (expiry dropped entries). This matters doubly for deterministic
// waves: expiry can force an estimate onto a coarser level, so the value
// read from an expired cell may even rise — standing-query evaluation must
// treat such cells as touched.
func (b *DWBank) AdvanceAllNoting(t Tick, note func(int)) {
	for i := range b.cells {
		c := &b.cells[i]
		if t > c.now {
			c.now = t
		}
		if b.expire(i, c) {
			note(i)
		}
	}
}

// Now reports the latest tick observed by cell i.
func (b *DWBank) Now(i int) Tick { return b.cells[i].now }

// Rank reports cell i's arrival count since the beginning of the stream.
func (b *DWBank) Rank(i int) uint64 { return b.cells[i].rank }

// EstimateSince estimates the number of arrivals in cell i with tick > since;
// the arithmetic matches DW.EstimateSince operation for operation.
func (b *DWBank) EstimateSince(i int, since Tick) float64 {
	c := &b.cells[i]
	if c.rank == 0 {
		return 0
	}
	if c.now >= b.cfg.Length {
		if ws := c.now - b.cfg.Length; since < ws {
			since = ws
		}
	}
	// Pick the finest level whose stored range covers the boundary: either
	// its oldest entry is at or before `since`, or the level has never
	// evicted (and hence covers the entire stream so far).
	base := i * b.nLv
	j := b.nLv - 1
	for cand := 0; cand < b.nLv; cand++ {
		d := &b.dirs[base+cand]
		if !d.evicted || (d.n > 0 && b.waveFront(d).t <= since) {
			j = cand
			break
		}
	}
	d := &b.dirs[base+j]
	idx := b.waveSearchTickAfter(d, since)
	gap := float64(uint64(1)<<uint(j)-1) / 2
	if j == 0 && !d.evicted {
		gap = 0 // level 0 without evictions is exact
	}
	if idx == int(d.n) {
		// Boundary is covered but no stored position lies after it: fewer
		// than 2^j arrivals are in range.
		if d.n == 0 {
			return 0
		}
		return gap
	}
	e := b.waveAt(d, idx)
	return float64(c.rank-e.rank) + 1 + gap
}

// EstimateRange estimates arrivals in cell i within the last r ticks.
func (b *DWBank) EstimateRange(i int, r Tick) float64 {
	r = clampRange(r, b.cfg.Length)
	return b.EstimateSince(i, rangeToSince(b.cells[i].now, r))
}

// EstimateWindow estimates arrivals in cell i within the whole window.
func (b *DWBank) EstimateWindow(i int) float64 { return b.EstimateRange(i, b.cfg.Length) }

// appendEntries appends cell i's stored entries to dst, collected level by
// level front to back — the exact collection order DW.distinctEntries uses,
// which keeps the merge replay byte-identical to the per-object path.
func (b *DWBank) appendEntries(dst []waveEntry, i int) []waveEntry {
	base := i * b.nLv
	for j := 0; j < b.nLv; j++ {
		d := &b.dirs[base+j]
		for k := 0; k < int(d.n); k++ {
			dst = append(dst, b.waveAt(d, k))
		}
	}
	return dst
}

// MergeCell performs the order-preserving aggregation of Section 5.1 into
// cell i, exactly as MergeDW does for per-object waves: each input cell's
// stored positions linearize into a tick-ordered run of replay events, and
// the runs are merged and replayed into the (empty) cell. now advances the
// cell's clock to the inputs' high-water tick.
func (b *DWBank) MergeCell(i int, now Tick, inputs []*DWBank) {
	b.MergeCellFrom(i, i, now, inputs)
}

// MergeCellFrom is MergeCell with the source index decoupled from the
// destination: the inputs' cell src merges into cell i of b. A worker
// merging a chunk of a larger bank into a chunk-sized private scratch bank
// addresses its scratch cells 0..n-1 while reading the inputs at their
// global indices; the replay is identical to MergeCell(src, ...) on a bank
// where the indices coincide.
func (b *DWBank) MergeCellFrom(i, src int, now Tick, inputs []*DWBank) {
	m := &b.merger
	m.begin(len(inputs))
	for _, in := range inputs {
		m.addEvents(waveReplayEvents(nil, sortDedupEntriesByRank(in.appendEntries(nil, src))))
	}
	for t, n, ok := m.next(); ok; t, n, ok = m.next() {
		b.AddN(i, t, n)
	}
	b.Advance(i, now)
}

// Clone returns an independent deep copy of the bank: three slab memcpys
// plus the fixed header. The clone owns its slabs outright, so source and
// clone may afterwards be used from different goroutines without
// coordination.
func (b *DWBank) Clone() *DWBank {
	c := &DWBank{
		cfg:     b.cfg,
		c:       b.c,
		nLv:     b.nLv,
		version: b.version,
		cells:   make([]dwCell, len(b.cells)),
		dirs:    make([]dwLevel, len(b.dirs)),
		slab:    make([]waveEntry, len(b.slab)),
		vers:    make([]uint64, len(b.vers)),
	}
	copy(c.cells, b.cells)
	copy(c.dirs, b.dirs)
	copy(c.slab, b.slab)
	copy(c.vers, b.vers)
	return c
}

// MemoryBytes reports the heap footprint of the whole bank. Unlike the
// per-object engine, levels that never stored an entry cost only their
// directory word — the worst-case ring budget is not paid up front.
func (b *DWBank) MemoryBytes() int {
	const (
		cellBytes  = 24 // dwCell: three 8-byte words
		levelBytes = 12 // dwLevel: off + head + n + evicted, padded
		entryBytes = 16 // waveEntry: tick + rank
		verBytes   = 8  // per-cell last-modified version
	)
	return 96 + len(b.cells)*(cellBytes+verBytes) + len(b.dirs)*levelBytes + cap(b.slab)*entryBytes
}

// CellUntouched reports whether cell i is in its never-touched state: zero
// rank, no stored entries, no eviction marks. Unlike EH, a wave cell whose
// entries all expired is NOT untouched — its rank and eviction flags persist
// in the encoding — so only never-written cells qualify for sparse-baseline
// elision.
func (b *DWBank) CellUntouched(i int) bool {
	if b.cells[i].rank != 0 {
		return false
	}
	base := i * b.nLv
	for j := 0; j < b.nLv; j++ {
		d := &b.dirs[base+j]
		if d.n != 0 || d.evicted {
			return false
		}
	}
	return true
}

// ResetCell empties cell i, keeping its carved level chunks for refills —
// the receiving half of a delta application replaces a changed cell by
// resetting it and decoding the shipped encoding into the empty cell.
func (b *DWBank) ResetCell(i int) {
	base := i * b.nLv
	for j := 0; j < b.nLv; j++ {
		d := &b.dirs[base+j]
		d.head, d.n, d.evicted = 0, 0, false
	}
	b.cells[i] = dwCell{}
	b.noteCellMutation(i)
}

// Reset empties every cell, keeping the configuration and retaining the
// arena's capacity for refills. Every cell counts as mutated: a delta cursor
// taken before a Reset must see all content re-shipped.
func (b *DWBank) Reset() {
	for i := range b.cells {
		b.cells[i] = dwCell{}
	}
	for i := range b.dirs {
		b.dirs[i] = dwLevel{off: -1}
	}
	b.slab = b.slab[:0]
	b.version++
	for i := range b.vers {
		b.vers[i] = b.version
	}
}
