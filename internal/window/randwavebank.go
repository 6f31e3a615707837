package window

import (
	"math"
	"sort"

	"ecmsketch/internal/hashing"
)

// This file implements the randomized-wave engine on the flat wave arena
// (wavering.go), completing the EHBank/DWBank family (see arena.go for the
// design rationale).
//
// The algorithm is deliberately identical to the textbook per-object wave
// kept in rw_oracle_test.go — same per-copy seeds, same geometric level
// assignment, same ring growth schedule (so capacity evictions happen at
// identical points), same eviction and expiry order, same median estimate —
// so a bank cell and the oracle fed the same identifiers return bit-identical
// answers and marshal to byte-identical encodings.

// rwCell is the per-counter header of a randomized-wave bank. Each cell
// carries its own identifier salt and sequence, so decoded encodings
// round-trip byte-identically.
type rwCell struct {
	waveClock
	count uint64 // arrivals since the beginning of the stream
	salt  uint64 // mixed into auto-generated event identifiers
	seq   uint64 // auto-identifier sequence
}

// RWBank is a bank of n randomized waves (Gibbons & Tirthapura) for
// duplicate-insensitive basic counting, backed by one contiguous entry
// arena. Every event carries a unique identifier; a hash of the identifier
// assigns the event to level l with probability 2^-(l+1), and the event is
// stored in levels 0..l, each level keeping its most recent Θ(1/ε²) events.
// A suffix count is estimated at the finest level covering the query
// boundary as (events in range) · 2^level, and the median over independent
// copies drives the failure probability below δ.
//
// Because the level assignment is a pure function of the event identifier,
// the position-wise union of several waves built with the same seed is again
// a wave, which is the lossless aggregation property exploited in Section
// 5.2 — at the cost of Θ(1/ε²) space instead of the deterministic synopses'
// Θ(1/ε). All cells share the bank's per-copy hash seeds, which derive from
// Config.Seed.
//
// RWBank is not safe for concurrent use.
type RWBank struct {
	bankCore
	waveArena     // cell i, copy r, level j is ring (i*reps+r)*nLv + j
	reps      int // independent repetitions (median-of-copies)
	nLv       int // levels per copy (L+1), fixed by cfg at construction
	seeds     []uint64
	cells     []rwCell
}

// NewRWBank constructs a bank of n empty randomized waves providing an (ε,δ)
// approximation over a window of cfg.Length ticks, sized for cfg.UpperBound
// arrivals per window. Each cell's default identifier salt derives from
// (cfg.Seed, cell index), so two processes building the same bank agree
// byte for byte.
func NewRWBank(cfg Config, n int) (*RWBank, error) {
	core, err := newBankCore(AlgoRW, cfg, n)
	if err != nil {
		return nil, err
	}
	c := rwCapacity(core.cfg.Epsilon)
	nLv := waveLevels(core.cfg.UpperBound, c) + 1
	reps := rwRepetitions(core.cfg.Delta)
	b := &RWBank{
		bankCore:  core,
		waveArena: newWaveArena(n, reps*nLv, c, 8),
		reps:      reps,
		nLv:       nLv,
		seeds:     make([]uint64, reps),
		cells:     make([]rwCell, n),
	}
	for r := range b.seeds {
		b.seeds[r] = hashing.Mix64(cfg.Seed ^ uint64(r+1)*0xD1B54A32D192ED03)
	}
	for i := range b.cells {
		b.cells[i].salt = hashing.Mix64(cfg.Seed*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xBF58476D1CE4E5B9)
	}
	return b, nil
}

// rwCapacity is the per-level event budget; the quadratic dependence on 1/ε
// is inherent to randomized synopses and is what the paper's evaluation
// charges them for.
func rwCapacity(eps float64) int { return int(math.Ceil(4 / (eps * eps))) }

// rwRepetitions is the number of independent copies whose median estimate is
// returned.
func rwRepetitions(delta float64) int {
	r := int(math.Ceil(math.Log(1 / delta)))
	if r < 1 {
		r = 1
	}
	if r%2 == 0 {
		r++ // odd count makes the median well-defined
	}
	return r
}

// SetCellIDSalt overrides the salt mixed into cell i's auto-generated event
// identifiers. Waves merged together must have been fed events with globally
// unique identifiers; the default salt separates the cells of one bank but
// is shared by every bank built with the same seed, so banks whose waves
// will be merged need explicit per-site salts (or explicit identifiers
// through AddID).
func (b *RWBank) SetCellIDSalt(i int, salt uint64) { b.cells[i].salt = salt }

// CellIDSalt reports cell i's auto-identifier salt (the inverse of
// SetCellIDSalt): sparse baselines ship it for elided cells, since it is the
// one per-cell, per-site field in an otherwise untouched cell's encoding.
func (b *RWBank) CellIDSalt(i int) uint64 { return b.cells[i].salt }

// AddID registers one arrival at tick t in cell i with an explicit unique
// event identifier. Feeding the same identifier twice leaves the estimate
// unchanged in expectation (duplicate insensitivity).
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
		e := waveEntry{t: t, id: id}
		base := (i*b.reps + r) * b.nLv
		for j := 0; j <= l; j++ {
			b.push(&b.dirs[base+j], e)
		}
	}
	if c.oldEnd > t {
		c.oldEnd = t
	}
	b.advance(i, &c.waveClock, t, b.cfg.Length)
	b.noteCellMutation(i)
}

// Add registers one arrival at tick t in cell i under an auto-generated
// unique identifier drawn from the cell's salt and sequence.
func (b *RWBank) Add(i int, t Tick) {
	c := &b.cells[i]
	c.seq++
	b.AddID(i, t, hashing.Mix64(c.salt^c.seq))
}

// Advance moves cell i's window to tick t, expiring old entries, and reports
// whether any entry was dropped.
func (b *RWBank) Advance(i int, t Tick) bool {
	return b.advance(i, &b.cells[i].waveClock, t, b.cfg.Length)
}

// Now reports the latest tick observed by cell i.
func (b *RWBank) Now(i int) Tick { return b.cells[i].now }

// Count reports cell i's arrival count since the beginning of the stream.
func (b *RWBank) Count(i int) uint64 { return b.cells[i].count }

// EstimateSince estimates the number of arrivals in cell i with tick > since
// as the median of the per-copy estimates. The median is taken over a
// stack-resident scratch (an insertion sort — copy counts are ≤ 21 under
// MinDelta), so estimates allocate nothing.
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

// copyEstimate is one repetition's estimate: the finest level covering the
// query boundary answers with (events in range) · 2^level.
func (b *RWBank) copyEstimate(i, r int, since Tick) float64 {
	base := (i*b.reps + r) * b.nLv
	j := b.finestCovering(base, b.nLv, since)
	d := &b.dirs[base+j]
	m := int(d.n) - b.searchTickAfter(d, since)
	return float64(m) * float64(uint64(1)<<uint(j))
}

// EstimateRange estimates arrivals in cell i within the last r ticks.
func (b *RWBank) EstimateRange(i int, r Tick) float64 {
	r = clampRange(r, b.cfg.Length)
	return b.EstimateSince(i, rangeToSince(b.cells[i].now, r))
}

// EstimateWindow estimates arrivals in cell i within the whole window.
func (b *RWBank) EstimateWindow(i int) float64 { return b.EstimateRange(i, b.cfg.Length) }

// MergeCellFrom aggregates the inputs' cell src into (empty) cell i of b
// (Section 5.2): level l of the output is the tick-sorted, id-deduplicated
// concatenation of the inputs' level-l entries, truncated to the most recent
// capacity. Inputs must share b's configuration and seeds; the accuracy
// guarantees of the output then equal those of the inputs — aggregation is
// lossless. The cell's clock becomes the later of now and the inputs' own.
// The merged cell's identifier salt is a deterministic fold of the input
// salts (nothing ever reads it back except auto-id generation, and a
// deterministic fold keeps merged encodings byte-stable across transports).
// See EHBank.MergeCellFrom for why the source index is decoupled from the
// destination.
func (b *RWBank) MergeCellFrom(i, src int, now Tick, inputs []*RWBank) {
	c := &b.cells[i]
	var count uint64
	salt := uint64(0x9e3779b97f4a7c15)
	for _, in := range inputs {
		ic := &in.cells[src]
		now = max(now, ic.now)
		count += ic.count
		salt = hashing.Mix64(salt ^ ic.salt)
	}
	// oldEnd starts at zero: conservative, so the advance below rescans.
	*c = rwCell{waveClock: waveClock{now: now}, count: count, salt: salt}
	var scratch []waveEntry
	rs := b.rings(i)
	for rj := range rs {
		scratch = collectBankLevel(scratch[:0], inputs, src, rj)
		for _, e := range scratch {
			b.push(&rs[rj], e)
		}
	}
	b.advance(i, &c.waveClock, now, b.cfg.Length)
	b.noteCellMutation(i)
}

// collectBankLevel gathers ring rj (one level of one repetition) of cell i
// across all inputs, sorted by tick with duplicate identifiers removed
// (union semantics).
func collectBankLevel(all []waveEntry, inputs []*RWBank, i, rj int) []waveEntry {
	for _, in := range inputs {
		d := &in.rings(i)[rj]
		for k := 0; k < int(d.n); k++ {
			all = append(all, in.at(d, k))
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

// Clone returns an independent deep copy of the bank.
func (b *RWBank) Clone() Bank {
	c := *b
	c.bankCore = b.bankCore.clone()
	c.waveArena = b.waveArena.clone()
	c.seeds = cloneExact(b.seeds)
	c.cells = cloneExact(b.cells)
	return &c
}

// MemoryBytes reports the heap footprint of the whole bank, including
// abandoned growth chunks still resident in the arena (bounded below the
// live footprint by the doubling schedule).
func (b *RWBank) MemoryBytes() int {
	const (
		cellBytes = 40 // rwCell: five 8-byte words
		verBytes  = 8  // per-cell last-modified version
	)
	return 96 + len(b.seeds)*8 + len(b.cells)*(cellBytes+verBytes) + b.memoryBytes()
}

// CellUntouched reports whether cell i is in its never-touched state: zero
// count and sequence, no stored entries, no eviction marks. The cell's
// identifier salt is excluded — it differs by cell and site even for
// untouched cells, so sparse-baseline elision ships it separately
// (CellIDSalt).
func (b *RWBank) CellUntouched(i int) bool {
	c := &b.cells[i]
	return c.count == 0 && c.seq == 0 && b.ringsUntouched(i)
}

// ResetCell empties cell i, keeping its identifier salt and its carved level
// chunks for refills.
func (b *RWBank) ResetCell(i int) {
	b.resetRings(i)
	b.cells[i] = rwCell{salt: b.cells[i].salt}
	b.noteCellMutation(i)
}

// Reset empties every cell, keeping configuration, seeds and per-cell salts,
// and reclaiming the arena (abandoned growth chunks included) for refills.
func (b *RWBank) Reset() {
	for i := range b.cells {
		b.cells[i] = rwCell{salt: b.cells[i].salt}
	}
	b.resetAll()
	b.noteAllMutated()
}
