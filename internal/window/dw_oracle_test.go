package window

// The per-object deterministic wave: one eagerly allocated full-capacity ring
// per level, the textbook layout DWBank replaced in production. It stays here
// as the differential oracle the bank is held to bit for bit; it shares the
// entry type, the level sizing and the merge lowering with production.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// entryDeque is a fixed-capacity ring buffer of wave entries ordered oldest
// (front) to newest (back). Waves allocate the full capacity at construction,
// which is why they need the arrival upper bound u(N,S) up front.
type entryDeque struct {
	buf     []waveEntry
	head    int
	n       int
	evicted bool // true once an entry has ever been displaced by capacity
}

func newEntryDeque(capacity int) entryDeque {
	return entryDeque{buf: make([]waveEntry, capacity)}
}

func (d *entryDeque) len() int { return d.n }

func (d *entryDeque) at(i int) waveEntry { return d.buf[(d.head+i)%len(d.buf)] }

func (d *entryDeque) front() waveEntry { return d.buf[d.head] }

func (d *entryDeque) pushBack(e waveEntry) {
	if d.n == len(d.buf) {
		d.head = (d.head + 1) % len(d.buf)
		d.n--
		d.evicted = true
	}
	d.buf[(d.head+d.n)%len(d.buf)] = e
	d.n++
}

func (d *entryDeque) popFront() waveEntry {
	e := d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return e
}

// searchTickAfter returns the index (from the front) of the oldest entry with
// t > s, or d.n if none.
func (d *entryDeque) searchTickAfter(s Tick) int {
	lo, hi := 0, d.n
	for lo < hi {
		mid := (lo + hi) / 2
		if d.at(mid).t > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (d *entryDeque) reset() {
	d.head, d.n, d.evicted = 0, 0, false
}

// DW is a deterministic wave (Gibbons & Tirthapura) for basic counting over a
// sliding window. Level j stores the ticks of every 2^j-th arrival, keeping
// the most recent c = ⌈1/ε⌉+2 positions. A suffix query is answered at the
// finest level whose stored range still covers the query boundary; the
// uncertainty is then at most 2^j-1 arrivals, an ε fraction of the true
// count.
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
type DW struct {
	cfg    Config
	c      int // capacity per level
	levels []entryDeque
	rank   uint64 // arrivals since the beginning of the stream
	now    Tick
}

// NewDW constructs a deterministic wave with relative error cfg.Epsilon over
// a window of cfg.Length ticks, sized for cfg.UpperBound arrivals per window.
func NewDW(cfg Config) (*DW, error) {
	if err := cfg.Validate(AlgoDW); err != nil {
		return nil, err
	}
	c := int(math.Ceil(1/cfg.Epsilon)) + 2
	L := waveLevels(cfg.UpperBound, c)
	w := &DW{cfg: cfg, c: c, levels: make([]entryDeque, L+1)}
	for i := range w.levels {
		w.levels[i] = newEntryDeque(c)
	}
	return w, nil
}

// Config returns the configuration the wave was built with.
func (w *DW) Config() Config { return w.cfg }

// Add registers one arrival at tick t.
func (w *DW) Add(t Tick) {
	if t == 0 {
		t = 1 // ticks are 1-based
	}
	if t < w.now {
		t = w.now
	}
	w.now = t
	w.rank++
	top := uint(len(w.levels) - 1)
	tz := uint(bits.TrailingZeros64(w.rank))
	if tz > top {
		tz = top
	}
	e := waveEntry{t: t, id: w.rank}
	for j := uint(0); j <= tz; j++ {
		w.levels[j].pushBack(e)
	}
	w.expire()
}

// AddN registers n arrivals at tick t.
func (w *DW) AddN(t Tick, n uint64) {
	for i := uint64(0); i < n; i++ {
		w.Add(t)
	}
	if n == 0 {
		w.Advance(t)
	}
}

// Advance moves the window to tick t, expiring old entries.
func (w *DW) Advance(t Tick) {
	if t > w.now {
		w.now = t
	}
	w.expire()
}

// Now reports the latest observed tick.
func (w *DW) Now() Tick { return w.now }

func (w *DW) expire() {
	if w.now < w.cfg.Length {
		return
	}
	cut := w.now - w.cfg.Length
	for j := range w.levels {
		d := &w.levels[j]
		for d.n > 0 && d.front().t <= cut {
			d.popFront()
		}
	}
}

// EstimateSince estimates the number of arrivals with tick > since.
func (w *DW) EstimateSince(since Tick) float64 {
	if w.rank == 0 {
		return 0
	}
	if w.now >= w.cfg.Length {
		if ws := w.now - w.cfg.Length; since < ws {
			since = ws
		}
	}
	// Pick the finest level whose stored range covers the boundary: either
	// its oldest entry is at or before `since`, or the level has never
	// evicted (and hence covers the entire stream so far).
	j := len(w.levels) - 1
	for cand := 0; cand < len(w.levels); cand++ {
		d := &w.levels[cand]
		if !d.evicted || (d.n > 0 && d.front().t <= since) {
			j = cand
			break
		}
	}
	d := &w.levels[j]
	idx := d.searchTickAfter(since)
	gap := float64(uint64(1)<<uint(j)-1) / 2
	if j == 0 && !d.evicted {
		gap = 0 // level 0 without evictions is exact
	}
	if idx == d.n {
		// Boundary is covered but no stored position lies after it: fewer
		// than 2^j arrivals are in range.
		if d.n == 0 {
			return 0
		}
		return gap
	}
	e := d.at(idx)
	return float64(w.rank-e.id) + 1 + gap
}

// EstimateRange estimates arrivals within the last r ticks.
func (w *DW) EstimateRange(r Tick) float64 {
	r = clampRange(r, w.cfg.Length)
	return w.EstimateSince(rangeToSince(w.now, r))
}

// EstimateWindow estimates arrivals within the whole window.
func (w *DW) EstimateWindow() float64 { return w.EstimateRange(w.cfg.Length) }

// MemoryBytes reports the heap footprint. Waves pre-allocate their level
// structure, so the footprint is fixed at construction.
func (w *DW) MemoryBytes() int {
	const entryBytes = 16
	n := 64
	for i := range w.levels {
		n += 40 + cap(w.levels[i].buf)*entryBytes
	}
	return n
}

// Reset empties the wave, keeping its configuration.
func (w *DW) Reset() {
	for i := range w.levels {
		w.levels[i].reset()
	}
	w.rank = 0
	w.now = 0
}

// Levels reports the number of levels in the wave.
func (w *DW) Levels() int { return len(w.levels) }

// MergeDW performs order-preserving aggregation of deterministic waves into
// a fresh wave configured by out (Section 5.1, "Deterministic Waves"). Each
// input wave is first converted to a bucket log equivalent to an exponential
// histogram's — consecutive stored ranks r1 < r2 delimit a bucket of r2−r1
// arrivals between their ticks — and the buckets are replayed half at the
// start tick and half at the end tick, in global tick order: ranks grow with
// ticks, so each log is already a tick-ordered run for the k-way merge EH
// aggregation uses. The resulting error bound matches Theorem 4: ε + ε′ + εε′.
func MergeDW(out Config, inputs ...*DW) (*DW, error) {
	if len(inputs) == 0 {
		return nil, errors.New("window: MergeDW requires at least one input")
	}
	if out.Model != TimeBased {
		return nil, errors.New("window: order-preserving aggregation requires time-based windows")
	}
	var m runMerger
	m.begin(len(inputs))
	var now Tick
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("window: MergeDW input %d is nil", i)
		}
		if in.cfg.Model != TimeBased {
			return nil, fmt.Errorf("window: MergeDW input %d is %v; count-based waves cannot be aggregated", i, in.cfg.Model)
		}
		m.addEvents(in.replayLog())
		now = max(now, in.now)
	}
	merged, err := NewDW(out)
	if err != nil {
		return nil, err
	}
	for t, n, ok := m.next(); ok; t, n, ok = m.next() {
		merged.AddN(t, n)
	}
	merged.Advance(now)
	return merged, nil
}

// replayLog linearizes the wave's stored positions into replay events. The
// distinct stored ranks split the summarized stream into segments; a segment
// between ranks r1 < r2 holds r2−r1 arrivals, replayed half at each boundary
// tick like an exponential-histogram bucket.
func (w *DW) replayLog() []replayEvent {
	return waveReplayEvents(nil, w.distinctEntries())
}

// distinctEntries returns all stored entries across levels, sorted by rank
// with duplicates removed.
func (w *DW) distinctEntries() []waveEntry {
	var all []waveEntry
	for j := range w.levels {
		d := &w.levels[j]
		for i := 0; i < d.n; i++ {
			all = append(all, d.at(i))
		}
	}
	return sortDedupEntriesByRank(all)
}
