package window

import (
	"math"
	"math/bits"
)

// This file implements the deterministic-wave engine on the flat wave arena
// (wavering.go), mirroring the EHBank layout (see arena.go for the design
// rationale).
//
// The algorithm is deliberately identical to the textbook per-object wave
// kept in dw_oracle_test.go — same rank-driven level insertion, same expiry,
// same estimate arithmetic in the same order — so a bank cell and the oracle
// fed the same stream return bit-identical answers and marshal to
// byte-identical encodings. Tests assert both.

// dwCell is the per-counter header of a deterministic-wave bank.
type dwCell struct {
	waveClock
	rank uint64 // arrivals since the beginning of the stream
}

// DWBank is a bank of n deterministic waves (Gibbons & Tirthapura) backed by
// one contiguous entry arena. Level j of a cell stores the ticks of every
// 2^j-th arrival, keeping the most recent c = ⌈1/ε⌉+2 positions. A suffix
// query is answered at the finest level whose stored range still covers the
// query boundary; the uncertainty is then at most 2^j-1 arrivals, an ε
// fraction of the true count.
//
// Waves have identical space to exponential histograms up to constants, but
// need u(N,S) — the maximum number of arrivals per window — at construction
// time to size their levels. Following the paper, overestimating u only
// costs logarithmically more space.
//
// Note on update cost: the paper's wave achieves O(1) worst-case updates via
// a level-linking trick; this implementation inserts rank r into levels
// 0..tz(r), which is O(1) amortized (expected two levels) and O(log u)
// worst-case, the same worst case as the exponential histogram.
//
// DWBank is not safe for concurrent use.
type DWBank struct {
	bankCore
	waveArena     // cell i's levels are rings(i), finest first
	nLv       int // levels per cell (L+1), fixed by cfg at construction
	cells     []dwCell

	merger runMerger // MergeCellFrom's scratch; never cloned
}

// NewDWBank constructs a bank of n empty deterministic waves, each with
// relative error cfg.Epsilon over a window of cfg.Length ticks, sized for
// cfg.UpperBound arrivals per window.
func NewDWBank(cfg Config, n int) (*DWBank, error) {
	core, err := newBankCore(AlgoDW, cfg, n)
	if err != nil {
		return nil, err
	}
	c := int(math.Ceil(1/core.cfg.Epsilon)) + 2
	nLv := waveLevels(core.cfg.UpperBound, c) + 1
	return &DWBank{
		bankCore:  core,
		waveArena: newWaveArena(n, nLv, c, c),
		nLv:       nLv,
		cells:     make([]dwCell, n),
	}, nil
}

// Add registers one arrival at tick t in cell i.
func (b *DWBank) Add(i int, t Tick) { b.AddN(i, t, 1) }

// AddN registers n arrivals at tick t in cell i: ticks are 1-based, slight
// regressions are clamped to the cell's clock, each arrival increments the
// rank and inserts into levels 0..tz(rank), and expiry runs after every
// arrival (so capacity-eviction flags match the per-object oracle bit for
// bit).
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
		e := waveEntry{t: t, id: c.rank}
		for j := uint(0); j <= tz; j++ {
			b.push(&b.dirs[base+int(j)], e)
		}
		if c.oldEnd > t {
			c.oldEnd = t // newly stored entry may now be the earliest
		}
		b.advance(i, &c.waveClock, t, b.cfg.Length)
	}
	b.noteCellMutation(i)
}

// AddBatchRow applies one row of a validated batch through AddN; the
// arguments are EHBank.AddBatchRow's.
func (b *DWBank) AddBatchRow(base int, pos []int32, ticks []Tick, ns []uint64, order []int32) {
	for k := range pos {
		e := k
		if order != nil {
			e = int(order[k])
		}
		n := uint64(1)
		if ns != nil {
			n = ns[e]
		}
		b.AddN(base+int(pos[e]), ticks[e], n)
	}
}

// Advance moves cell i's window to tick t, expiring old entries, and reports
// whether any entry was dropped. This matters doubly for deterministic
// waves: expiry can force an estimate onto a coarser level, so the value
// read from an expired cell may even rise — standing-query evaluation must
// treat such cells as touched.
func (b *DWBank) Advance(i int, t Tick) bool {
	return b.advance(i, &b.cells[i].waveClock, t, b.cfg.Length)
}

// Now reports the latest tick observed by cell i.
func (b *DWBank) Now(i int) Tick { return b.cells[i].now }

// Rank reports cell i's arrival count since the beginning of the stream.
func (b *DWBank) Rank(i int) uint64 { return b.cells[i].rank }

// EstimateSince estimates the number of arrivals in cell i with tick > since.
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
	j := b.finestCovering(i*b.nLv, b.nLv, since)
	d := &b.dirs[i*b.nLv+j]
	idx := b.searchTickAfter(d, since)
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
	e := b.at(d, idx)
	return float64(c.rank-e.id) + 1 + gap
}

// EstimateRange estimates arrivals in cell i within the last r ticks.
func (b *DWBank) EstimateRange(i int, r Tick) float64 {
	r = clampRange(r, b.cfg.Length)
	return b.EstimateSince(i, rangeToSince(b.cells[i].now, r))
}

// appendEntries appends cell i's stored entries to dst, collected level by
// level front to back — a collection order the merge replay's bytes depend
// on.
func (b *DWBank) appendEntries(dst []waveEntry, i int) []waveEntry {
	rs := b.rings(i)
	for j := range rs {
		for k := 0; k < int(rs[j].n); k++ {
			dst = append(dst, b.at(&rs[j], k))
		}
	}
	return dst
}

// MergeCellFrom performs the order-preserving aggregation of Section 5.1
// ("Deterministic Waves") from the inputs' cell src into cell i of b, which
// must be empty. Each input cell is first converted to a bucket log
// equivalent to an exponential histogram's — consecutive stored ranks r1 <
// r2 delimit a bucket of r2−r1 arrivals between their ticks (waveReplayEvents)
// — and the buckets are replayed half at the start tick and half at the end
// tick, in global tick order: ranks grow with ticks, so each log is already a
// tick-ordered run for the k-way merge EH aggregation uses. now then
// advances the cell's clock to the inputs' high-water tick. The resulting
// error bound matches Theorem 4: ε + ε′ + εε′. See EHBank.MergeCellFrom for
// why the source index is decoupled from the destination and for the
// time-based-only restriction.
func (b *DWBank) MergeCellFrom(i, src int, now Tick, inputs []*DWBank) {
	m := &b.merger
	m.begin(len(inputs))
	for _, in := range inputs {
		m.addEvents(waveReplayEvents(nil, sortDedupEntriesByRank(in.appendEntries(nil, src)), in.EstimateRange(src, in.cfg.Length)))
	}
	for t, n, ok := m.next(); ok; t, n, ok = m.next() {
		b.AddN(i, t, n)
	}
	b.Advance(i, now)
}

// Clone returns an independent deep copy of the bank.
func (b *DWBank) Clone() Bank {
	c := *b
	c.bankCore = b.bankCore.clone()
	c.waveArena = b.waveArena.clone()
	c.cells = cloneExact(b.cells)
	c.merger = runMerger{}
	return &c
}

// MemoryBytes reports the heap footprint of the whole bank. Levels that never
// stored an entry cost only their directory word — the worst-case ring
// budget is not paid up front.
func (b *DWBank) MemoryBytes() int {
	const (
		cellBytes = 24 // dwCell: clock + rank, three 8-byte words
		verBytes  = 8  // per-cell last-modified version
	)
	return 96 + len(b.cells)*(cellBytes+verBytes) + b.memoryBytes()
}

// CellUntouched reports whether cell i is in its never-touched state: zero
// rank, no stored entries, no eviction marks. Unlike EH, a wave cell whose
// entries all expired is NOT untouched — its rank and eviction flags persist
// in the encoding — so only never-written cells qualify for sparse-baseline
// elision.
func (b *DWBank) CellUntouched(i int) bool {
	return b.cells[i].rank == 0 && b.ringsUntouched(i)
}

// ResetCell empties cell i, keeping its carved level chunks for refills.
func (b *DWBank) ResetCell(i int) {
	b.resetRings(i)
	b.cells[i] = dwCell{}
	b.noteCellMutation(i)
}

// Reset empties every cell, keeping the configuration and retaining the
// arena's capacity for refills.
func (b *DWBank) Reset() {
	clear(b.cells)
	b.resetAll()
	b.noteAllMutated()
}
