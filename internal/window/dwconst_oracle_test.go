package window

import (
	"math"
	"math/bits"
)

// DWConst is the deterministic wave with the paper's strict O(1) worst-case
// update: each arrival is stored in exactly ONE level queue — the level
// equal to the number of trailing zeros of its rank — instead of in every
// level it belongs to. The multiples of 2^j are then reconstructed as the
// union of levels j..L, which is complete over any rank span that every one
// of those levels still retains.
//
// Space is identical to DW (L+1 levels × c entries); queries pay an extra
// O(L) factor for the per-level merge, matching the paper's query column.
// DW (the multi-placement variant) remains the default inside ECM-sketches:
// its queries are cheaper and its amortized update cost is the same; DWConst
// exists to demonstrate the constant-time-update point of Table 2 and for
// latency-critical ingestion paths.
type DWConst struct {
	cfg    Config
	c      int
	levels []entryDeque // level j holds entries with tz(rank) == j (top level: ≥ L)
	rank   uint64
	now    Tick
}

// NewDWConst constructs the constant-update wave.
func NewDWConst(cfg Config) (*DWConst, error) {
	if err := cfg.Validate(AlgoDW); err != nil {
		return nil, err
	}
	c := int(math.Ceil(1/cfg.Epsilon)) + 2
	L := waveLevels(cfg.UpperBound, c)
	w := &DWConst{cfg: cfg, c: c, levels: make([]entryDeque, L+1)}
	for i := range w.levels {
		w.levels[i] = newEntryDeque(c)
	}
	return w, nil
}

// Config returns the configuration the wave was built with.
func (w *DWConst) Config() Config { return w.cfg }

// Add registers one arrival at tick t with strict O(1) cost: one ring-buffer
// insertion, regardless of the rank's trailing-zero count.
func (w *DWConst) Add(t Tick) {
	if t == 0 {
		t = 1
	}
	if t < w.now {
		t = w.now
	}
	w.now = t
	w.rank++
	j := bits.TrailingZeros64(w.rank)
	if j >= len(w.levels) {
		j = len(w.levels) - 1
	}
	w.levels[j].pushBack(waveEntry{t: t, id: w.rank})
	w.expireOne(j)
}

// AddN registers n arrivals at tick t.
func (w *DWConst) AddN(t Tick, n uint64) {
	for i := uint64(0); i < n; i++ {
		w.Add(t)
	}
	if n == 0 {
		w.Advance(t)
	}
}

// expireOne amortizes window expiry: each insertion pops at most a few
// stale fronts, keeping the worst-case update constant while queries finish
// the job for untouched levels.
func (w *DWConst) expireOne(j int) {
	if w.now < w.cfg.Length {
		return
	}
	cut := w.now - w.cfg.Length
	d := &w.levels[j]
	for k := 0; k < 2 && d.n > 0 && d.front().t <= cut; k++ {
		d.popFront()
	}
}

// Advance moves the window to tick t, expiring old entries everywhere.
func (w *DWConst) Advance(t Tick) {
	if t > w.now {
		w.now = t
	}
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

// Now reports the latest observed tick.
func (w *DWConst) Now() Tick { return w.now }

// coverageRank returns the oldest rank R such that the union of levels j..L
// is guaranteed to contain every multiple of 2^j with rank ≥ R (ignoring
// window expiry, which only removes out-of-window content).
func (w *DWConst) coverageRank(j int) uint64 {
	var r uint64 = 1
	for k := j; k < len(w.levels); k++ {
		d := &w.levels[k]
		if !d.evicted {
			continue // level k still holds everything it ever received
		}
		if d.n == 0 {
			// Evicted and empty: nothing reconstructible at this granularity.
			return w.rank + 1
		}
		if fr := d.front().id; fr > r {
			r = fr
		}
	}
	return r
}

// unionAfter scans levels j..L for entries with rank ≥ minRank and tick >
// since, returning how many there are and the minimum rank among them
// (0 when none).
func (w *DWConst) unionAfter(j int, minRank uint64, since Tick) (count uint64, oldestRank uint64) {
	for k := j; k < len(w.levels); k++ {
		d := &w.levels[k]
		idx := d.searchTickAfter(since)
		for ; idx < d.n; idx++ {
			e := d.at(idx)
			if e.id < minRank {
				continue
			}
			count++
			if oldestRank == 0 || e.id < oldestRank {
				oldestRank = e.id
			}
		}
	}
	return count, oldestRank
}

// EstimateSince estimates the number of arrivals with tick > since.
func (w *DWConst) EstimateSince(since Tick) float64 {
	if w.rank == 0 {
		return 0
	}
	// Lazy expiry for levels not touched recently.
	w.Advance(w.now)
	if w.now >= w.cfg.Length {
		if ws := w.now - w.cfg.Length; since < ws {
			since = ws
		}
	}
	// Pick the finest level whose reconstructible span covers the boundary.
	for j := 0; j < len(w.levels); j++ {
		cov := w.coverageRank(j)
		if cov > w.rank {
			continue // nothing reconstructible at this granularity
		}
		covered := cov == 1 || w.unionHasTickAtOrBefore(j, cov, since)
		if !covered && j < len(w.levels)-1 {
			continue
		}
		_, oldest := w.unionAfter(j, cov, since)
		gap := float64(uint64(1)<<uint(j)-1) / 2
		if j == 0 && cov == 1 {
			gap = 0
		}
		if oldest == 0 {
			return gap
		}
		return float64(w.rank-oldest) + 1 + gap
	}
	return 0
}

// unionHasTickAtOrBefore reports whether the union of levels j..L retains an
// entry with rank ≥ minRank and tick ≤ since — i.e. the boundary falls
// inside the reconstructible span.
func (w *DWConst) unionHasTickAtOrBefore(j int, minRank uint64, since Tick) bool {
	for k := j; k < len(w.levels); k++ {
		d := &w.levels[k]
		idx := d.searchTickAfter(since)
		for i := 0; i < idx; i++ {
			if d.at(i).id >= minRank {
				return true
			}
		}
	}
	return false
}

// EstimateRange estimates arrivals within the last r ticks.
func (w *DWConst) EstimateRange(r Tick) float64 {
	r = clampRange(r, w.cfg.Length)
	return w.EstimateSince(rangeToSince(w.now, r))
}

// EstimateWindow estimates arrivals within the whole window.
func (w *DWConst) EstimateWindow() float64 { return w.EstimateRange(w.cfg.Length) }

// MemoryBytes reports the (fixed) footprint.
func (w *DWConst) MemoryBytes() int {
	const entryBytes = 16
	n := 64
	for i := range w.levels {
		n += 40 + cap(w.levels[i].buf)*entryBytes
	}
	return n
}

// Reset empties the wave.
func (w *DWConst) Reset() {
	for i := range w.levels {
		w.levels[i].reset()
	}
	w.rank = 0
	w.now = 0
}
