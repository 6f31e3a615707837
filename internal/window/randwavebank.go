package window

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ecmsketch/internal/hashing"
)

// This file implements the flat-memory randomized-wave engine: a bank of RW
// counters whose level rings all live in one contiguous arena, completing
// the EHBank/DWBank family (see arena.go for the design rationale).
//
// Randomized-wave levels have a Θ(1/ε²) capacity budget but usually hold far
// fewer events, so — like the per-object rwDeque — the bank grows each ring
// on demand: a level starts uncarved, is carved at 8 entries on its first
// push, and doubles (capped at the budget) by carving a fresh chunk at the
// slab end and abandoning the old one. Abandoned chunks are bounded by the
// doubling schedule to less than the live footprint and are reclaimed on
// Reset; Clone still copies the arena with three memcpys.
//
// The algorithm is deliberately identical to type RW — same per-copy seeds,
// same geometric level assignment, same eviction and expiry order, same
// median estimate — so a bank cell and an RW fed the same identifiers return
// bit-identical answers and marshal to byte-identical encodings.

// rwCell is the per-counter header of a randomized-wave bank. Each cell
// carries its own identifier salt and sequence like a per-object RW, so
// decoded encodings round-trip byte-identically.
type rwCell struct {
	now    Tick
	count  uint64 // arrivals since the beginning of the stream
	salt   uint64 // mixed into auto-generated event identifiers
	seq    uint64 // auto-identifier sequence
	oldEnd Tick   // conservative lower bound on the earliest stored tick
}

// rwLevel locates one level's ring inside the slab. off < 0 marks a level
// whose chunk has not been carved yet; capn is the carved chunk capacity.
type rwLevel struct {
	off     int32
	capn    int32
	head    int32
	n       int32
	evicted bool
}

// RWBank is a bank of n randomized-wave counters backed by one contiguous
// entry arena. All cells share the bank's per-copy hash seeds (they derive
// from Config.Seed, exactly as per-object waves constructed from the same
// Config would).
//
// RWBank is not safe for concurrent use.
type RWBank struct {
	cfg   Config
	c     int // capacity budget per level: ⌈4/ε²⌉
	reps  int // independent repetitions (median-of-copies)
	nLv   int // levels per copy (L+1), fixed by cfg at construction
	seeds []uint64
	cells []rwCell
	dirs  []rwLevel // cell i, copy r, level j at ((i*reps)+r)*nLv + j
	slab  []rwEntry

	// version/vers: identical change-tracking semantics to EHBank.
	version uint64
	vers    []uint64
}

// NewRWBank constructs a bank of n empty randomized waves providing an (ε,δ)
// approximation over a window of cfg.Length ticks. Each cell draws a
// process-unique default identifier salt, like per-object RW construction.
func NewRWBank(cfg Config, n int) (*RWBank, error) {
	if err := cfg.Validate(AlgoRW); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("window: bank size must be positive, got %d", n)
	}
	c := rwCapacity(cfg.Epsilon)
	L := waveLevels(cfg.UpperBound, c)
	reps := rwRepetitions(cfg.Delta)
	b := &RWBank{
		cfg:   cfg,
		c:     c,
		reps:  reps,
		nLv:   L + 1,
		seeds: make([]uint64, reps),
		cells: make([]rwCell, n),
		dirs:  make([]rwLevel, n*reps*(L+1)),
		vers:  make([]uint64, n),
	}
	for r := range b.seeds {
		b.seeds[r] = hashing.Mix64(cfg.Seed ^ uint64(r+1)*0xD1B54A32D192ED03)
	}
	for i := range b.cells {
		b.cells[i].salt = hashing.Mix64(atomic.AddUint64(&rwSaltCounter, 1) * 0x9e3779b97f4a7c15)
	}
	for i := range b.dirs {
		b.dirs[i].off = -1
	}
	return b, nil
}

// Version reports the bank's arrival-mutation counter (see EHBank.Version).
func (b *RWBank) Version() uint64 { return b.version }

// CellChangedSince reports whether cell i's content changed by arrival after
// bank version since.
func (b *RWBank) CellChangedSince(i int, since uint64) bool { return b.vers[i] > since }

// noteCellMutation stamps cell i as changed at a fresh bank version.
func (b *RWBank) noteCellMutation(i int) {
	b.version++
	b.vers[i] = b.version
}

// VersionVector exports the bank's change-tracking state for durable
// snapshots (see EHBank.VersionVector). The returned slice is a copy.
func (b *RWBank) VersionVector() (uint64, []uint64) {
	return b.version, append([]uint64(nil), b.vers...)
}

// RestoreVersionVector installs previously exported change-tracking state.
func (b *RWBank) RestoreVersionVector(version uint64, vers []uint64) error {
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
func (b *RWBank) Config() Config { return b.cfg }

// Len reports the number of cells.
func (b *RWBank) Len() int { return len(b.cells) }

// Copies reports the number of independent repetitions per cell.
func (b *RWBank) Copies() int { return b.reps }

// Levels reports the number of levels per copy.
func (b *RWBank) Levels() int { return b.nLv }

// SetCellIDSalt overrides cell i's auto-identifier salt (the per-cell
// equivalent of RW.SetIDSalt; multi-process deployments feeding explicit
// identifiers never need it).
func (b *RWBank) SetCellIDSalt(i int, salt uint64) { b.cells[i].salt = salt }

// level returns copy r, level j of cell i.
func (b *RWBank) level(i, r, j int) *rwLevel {
	return &b.dirs[(i*b.reps+r)*b.nLv+j]
}

// rwGrow carves a bigger chunk at the slab end (8 entries, doubling, capped
// at the level budget — the same schedule as rwDeque.grow, so capacity
// evictions happen at identical points) and moves the ring into it. The old
// chunk is abandoned.
func (b *RWBank) rwGrow(d *rwLevel) {
	nc := int(d.capn) * 2
	if nc == 0 {
		nc = 8
	}
	if nc > b.c {
		nc = b.c
	}
	need := len(b.slab) + nc
	if cap(b.slab) >= need {
		b.slab = b.slab[:need]
	} else {
		grown := make([]rwEntry, need, need*2)
		copy(grown, b.slab)
		b.slab = grown
	}
	off := need - nc
	for k := 0; k < int(d.n); k++ {
		p := int(d.head) + k
		if p >= int(d.capn) {
			p -= int(d.capn)
		}
		b.slab[off+k] = b.slab[int(d.off)+p]
	}
	d.off = int32(off)
	d.capn = int32(nc)
	d.head = 0
}

// rwAt returns the j-th entry (from the oldest) of a level's ring.
func (b *RWBank) rwAt(d *rwLevel, j int) rwEntry {
	p := int(d.head) + j
	if p >= int(d.capn) {
		p -= int(d.capn)
	}
	return b.slab[int(d.off)+p]
}

// rwFront returns the oldest entry of a level's ring.
func (b *RWBank) rwFront(d *rwLevel) rwEntry {
	return b.slab[int(d.off)+int(d.head)]
}

func (b *RWBank) rwPush(d *rwLevel, e rwEntry) {
	if d.n == d.capn {
		if int(d.capn) < b.c {
			b.rwGrow(d)
		} else {
			h := int(d.head) + 1
			if h == int(d.capn) {
				h = 0
			}
			d.head = int32(h)
			d.n--
			d.evicted = true
		}
	}
	p := int(d.head) + int(d.n)
	if p >= int(d.capn) {
		p -= int(d.capn)
	}
	b.slab[int(d.off)+p] = e
	d.n++
}

func (b *RWBank) rwPop(d *rwLevel) {
	h := int(d.head) + 1
	if h == int(d.capn) {
		h = 0
	}
	d.head = int32(h)
	d.n--
}

// rwSearchTickAfter returns the index (from the front) of the oldest entry
// of the level with t > s, or n if none.
func (b *RWBank) rwSearchTickAfter(d *rwLevel, s Tick) int {
	lo, hi := 0, int(d.n)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.rwAt(d, mid).t > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// AddID registers one arrival at tick t in cell i with an explicit unique
// event identifier; semantics mirror RW.AddID exactly.
func (b *RWBank) AddID(i int, t Tick, id uint64) {
	c := &b.cells[i]
	if t == 0 {
		t = 1 // ticks are 1-based
	}
	if t < c.now {
		t = c.now
	}
	c.now = t
	c.count++
	top := b.nLv - 1
	for r := 0; r < b.reps; r++ {
		l := hashing.GeometricLevel(b.seeds[r], id, top)
		e := rwEntry{t: t, id: id}
		base := (i*b.reps + r) * b.nLv
		for j := 0; j <= l; j++ {
			b.rwPush(&b.dirs[base+j], e)
		}
	}
	if c.oldEnd > t {
		c.oldEnd = t
	}
	b.expire(i, c)
	b.noteCellMutation(i)
}

// Add registers one arrival at tick t in cell i under an auto-generated
// unique identifier drawn from the cell's salt and sequence.
func (b *RWBank) Add(i int, t Tick) {
	c := &b.cells[i]
	c.seq++
	b.AddID(i, t, hashing.Mix64(c.salt^c.seq))
}

// expire drops entries of cell i that left the window, scanning every copy's
// levels exactly like RW.expire; the cached oldEnd lower bound
// short-circuits the common nothing-to-expire case.
func (b *RWBank) expire(i int, c *rwCell) bool {
	if c.now < b.cfg.Length {
		return false
	}
	cut := c.now - b.cfg.Length
	if c.oldEnd > cut {
		return false
	}
	oldest := emptyOldEnd
	popped := false
	base := i * b.reps * b.nLv
	for rj := 0; rj < b.reps*b.nLv; rj++ {
		d := &b.dirs[base+rj]
		for d.n > 0 && b.rwFront(d).t <= cut {
			b.rwPop(d)
			popped = true
		}
		if d.n > 0 {
			if f := b.rwFront(d).t; f < oldest {
				oldest = f
			}
		}
	}
	c.oldEnd = oldest
	return popped
}

// Advance moves cell i's window to tick t, expiring old entries.
func (b *RWBank) Advance(i int, t Tick) {
	c := &b.cells[i]
	if t > c.now {
		c.now = t
	}
	b.expire(i, c)
}

// AdvanceAll moves every cell's window to tick t.
func (b *RWBank) AdvanceAll(t Tick) {
	for i := range b.cells {
		b.Advance(i, t)
	}
}

// AdvanceAllNoting moves every cell's window to tick t like AdvanceAll and
// calls note(i) for each cell whose retained content the move actually
// changed (expiry dropped entries) — the exact changed-cell feed delta
// receivers hand to standing-query evaluation.
func (b *RWBank) AdvanceAllNoting(t Tick, note func(int)) {
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
func (b *RWBank) Now(i int) Tick { return b.cells[i].now }

// Count reports cell i's arrival count since the beginning of the stream.
func (b *RWBank) Count(i int) uint64 { return b.cells[i].count }

// EstimateSince estimates the number of arrivals in cell i with tick > since
// as the median of the per-copy estimates, matching RW.EstimateSince. The
// median is taken over a stack-resident scratch (an insertion sort — copy
// counts are ≤ 21 under MinDelta), so estimates allocate nothing.
func (b *RWBank) EstimateSince(i int, since Tick) float64 {
	c := &b.cells[i]
	if c.count == 0 {
		return 0
	}
	if c.now >= b.cfg.Length {
		if ws := c.now - b.cfg.Length; since < ws {
			since = ws
		}
	}
	var buf [32]float64
	ests := buf[:0]
	if b.reps > len(buf) {
		ests = make([]float64, 0, b.reps)
	}
	for r := 0; r < b.reps; r++ {
		ests = append(ests, b.copyEstimate(i, r, since))
	}
	// Insertion sort; identical median to sort.Float64s on these finite
	// values without forcing the scratch to escape.
	for x := 1; x < len(ests); x++ {
		v := ests[x]
		y := x - 1
		for y >= 0 && ests[y] > v {
			ests[y+1] = ests[y]
			y--
		}
		ests[y+1] = v
	}
	return ests[len(ests)/2]
}

// copyEstimate mirrors rwCopy.estimate: the finest level covering the query
// boundary answers with (events in range) · 2^level.
func (b *RWBank) copyEstimate(i, r int, since Tick) float64 {
	base := (i*b.reps + r) * b.nLv
	j := b.nLv - 1
	for cand := 0; cand < b.nLv; cand++ {
		d := &b.dirs[base+cand]
		if !d.evicted || (d.n > 0 && b.rwFront(d).t <= since) {
			j = cand
			break
		}
	}
	d := &b.dirs[base+j]
	m := int(d.n) - b.rwSearchTickAfter(d, since)
	return float64(m) * float64(uint64(1)<<uint(j))
}

// EstimateRange estimates arrivals in cell i within the last r ticks.
func (b *RWBank) EstimateRange(i int, r Tick) float64 {
	r = clampRange(r, b.cfg.Length)
	return b.EstimateSince(i, rangeToSince(b.cells[i].now, r))
}

// EstimateWindow estimates arrivals in cell i within the whole window.
func (b *RWBank) EstimateWindow(i int) float64 { return b.EstimateRange(i, b.cfg.Length) }

// MergeCell aggregates the inputs' cell i into (empty) cell i of b, exactly
// as MergeRW does position-wise for per-object waves with identical
// configuration: level l of the output is the tick-sorted, id-deduplicated
// concatenation of the inputs' level-l entries. The merged cell's identifier
// salt is a deterministic fold of the input salts (the per-object merge drew
// a fresh random salt; nothing ever reads it back except auto-id generation,
// and a deterministic fold keeps merged encodings byte-stable across
// transports).
func (b *RWBank) MergeCell(i int, inputs []*RWBank) {
	b.MergeCellFrom(i, i, inputs)
}

// MergeCellFrom is MergeCell with the source index decoupled from the
// destination: the inputs' cell src unions into cell i of b. See
// DWBank.MergeCellFrom for why the split exists.
func (b *RWBank) MergeCellFrom(i, src int, inputs []*RWBank) {
	c := &b.cells[i]
	var now Tick
	var count uint64
	salt := uint64(0x9e3779b97f4a7c15)
	for _, in := range inputs {
		ic := &in.cells[src]
		if ic.now > now {
			now = ic.now
		}
		count += ic.count
		salt = hashing.Mix64(salt ^ ic.salt)
	}
	c.now = now
	c.count = count
	c.salt = salt
	c.seq = 0
	var scratch []rwEntry
	for r := 0; r < b.reps; r++ {
		for j := 0; j < b.nLv; j++ {
			scratch = collectBankLevel(scratch[:0], inputs, src, r, j)
			d := b.level(i, r, j)
			for _, e := range scratch {
				b.rwPush(d, e)
			}
		}
	}
	c.oldEnd = 0 // conservative: let expire rescan
	b.expire(i, c)
	b.noteCellMutation(i)
}

// collectBankLevel gathers level j of repetition r of cell i across all
// inputs, sorted by tick with duplicate identifiers removed — the same
// collection order, comparator and dedup scan as collectLevel, so the merged
// ring content is byte-identical to the per-object merge.
func collectBankLevel(all []rwEntry, inputs []*RWBank, i, r, j int) []rwEntry {
	for _, in := range inputs {
		d := in.level(i, r, j)
		for k := 0; k < int(d.n); k++ {
			all = append(all, in.rwAt(d, k))
		}
	}
	// Not the EH/DW run merger: equal-tick entries carry distinct ids, so this
	// sort's tie order is byte-visible in the merged rings and must not change.
	sort.Slice(all, func(x, y int) bool { return all[x].t < all[y].t })
	seen := make(map[uint64]struct{}, len(all))
	out := all[:0]
	for _, e := range all {
		if _, dup := seen[e.id]; dup {
			continue
		}
		seen[e.id] = struct{}{}
		out = append(out, e)
	}
	return out
}

// Clone returns an independent deep copy of the bank: three slab memcpys
// plus the fixed header.
func (b *RWBank) Clone() *RWBank {
	c := &RWBank{
		cfg:     b.cfg,
		c:       b.c,
		reps:    b.reps,
		nLv:     b.nLv,
		version: b.version,
		seeds:   make([]uint64, len(b.seeds)),
		cells:   make([]rwCell, len(b.cells)),
		dirs:    make([]rwLevel, len(b.dirs)),
		slab:    make([]rwEntry, len(b.slab)),
		vers:    make([]uint64, len(b.vers)),
	}
	copy(c.seeds, b.seeds)
	copy(c.cells, b.cells)
	copy(c.dirs, b.dirs)
	copy(c.slab, b.slab)
	copy(c.vers, b.vers)
	return c
}

// MemoryBytes reports the heap footprint of the whole bank, including
// abandoned growth chunks still resident in the arena (bounded below the
// live footprint by the doubling schedule).
func (b *RWBank) MemoryBytes() int {
	const (
		cellBytes  = 40 // rwCell: five 8-byte words
		levelBytes = 20 // rwLevel: four int32s + evicted, padded
		entryBytes = 16 // rwEntry: tick + id
		verBytes   = 8  // per-cell last-modified version
	)
	return 96 + len(b.seeds)*8 + len(b.cells)*(cellBytes+verBytes) + len(b.dirs)*levelBytes + cap(b.slab)*entryBytes
}

// CellUntouched reports whether cell i is in its never-touched state: zero
// count and sequence, no stored entries, no eviction marks. The cell's
// identifier salt is excluded — it is process-random even for untouched
// cells, so sparse-baseline elision ships it separately (CellIDSalt).
func (b *RWBank) CellUntouched(i int) bool {
	c := &b.cells[i]
	if c.count != 0 || c.seq != 0 {
		return false
	}
	base := i * b.reps * b.nLv
	for rj := 0; rj < b.reps*b.nLv; rj++ {
		d := &b.dirs[base+rj]
		if d.n != 0 || d.evicted {
			return false
		}
	}
	return true
}

// CellIDSalt reports cell i's auto-identifier salt (the inverse of
// SetCellIDSalt): sparse baselines ship it for elided cells, since it is the
// one process-random field in an otherwise untouched cell's encoding.
func (b *RWBank) CellIDSalt(i int) uint64 { return b.cells[i].salt }

// ResetCell empties cell i, keeping its identifier salt (like RW.Reset) and
// its carved level chunks for refills.
func (b *RWBank) ResetCell(i int) {
	base := i * b.reps * b.nLv
	for rj := 0; rj < b.reps*b.nLv; rj++ {
		d := &b.dirs[base+rj]
		d.head, d.n, d.evicted = 0, 0, false
	}
	salt := b.cells[i].salt
	b.cells[i] = rwCell{salt: salt}
	b.noteCellMutation(i)
}

// Reset empties every cell, keeping configuration, seeds and per-cell salts,
// and reclaiming the arena (abandoned growth chunks included) for refills.
func (b *RWBank) Reset() {
	for i := range b.cells {
		salt := b.cells[i].salt
		b.cells[i] = rwCell{salt: salt}
	}
	for i := range b.dirs {
		b.dirs[i] = rwLevel{off: -1}
	}
	b.slab = b.slab[:0]
	b.version++
	for i := range b.vers {
		b.vers[i] = b.version
	}
}
