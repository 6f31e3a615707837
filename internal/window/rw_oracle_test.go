package window

// The per-object randomized wave: one growable deque per level of every
// copy, the textbook layout RWBank replaced in production. It stays here as
// the differential oracle the bank is held to bit for bit, down to its own
// entry type; only the sizing formulas are shared.

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"ecmsketch/internal/hashing"
)

// rwSaltCounter hands out distinct default identifier salts to oracle waves
// built in the same process.
var rwSaltCounter uint64

// rwEntry is one stored event of a randomized wave: its tick and its unique
// event identifier. The identifier determines the event's level assignment,
// which is what makes randomized waves duplicate-insensitive and losslessly
// mergeable.
type rwEntry struct {
	t  Tick
	id uint64
}

// rwDeque is a bounded ring buffer of rwEntry ordered oldest to newest. Its
// logical capacity is fixed at construction (the randomized wave's Θ(1/ε²)
// level budget) but the backing array grows on demand, so an ECM-RW grid
// whose counters see few events does not pay the worst-case footprint up
// front.
type rwDeque struct {
	buf      []rwEntry
	head     int
	n        int
	capLimit int
	evicted  bool
}

func newRWDeque(capacity int) rwDeque { return rwDeque{capLimit: capacity} }

func (d *rwDeque) len() int { return d.n }

func (d *rwDeque) at(i int) rwEntry { return d.buf[(d.head+i)%len(d.buf)] }

func (d *rwDeque) front() rwEntry { return d.buf[d.head] }

func (d *rwDeque) pushBack(e rwEntry) {
	if d.n == len(d.buf) {
		if len(d.buf) < d.capLimit {
			d.grow()
		} else {
			d.head = (d.head + 1) % len(d.buf)
			d.n--
			d.evicted = true
		}
	}
	d.buf[(d.head+d.n)%len(d.buf)] = e
	d.n++
}

func (d *rwDeque) grow() {
	nc := len(d.buf) * 2
	if nc == 0 {
		nc = 8
	}
	if nc > d.capLimit {
		nc = d.capLimit
	}
	nb := make([]rwEntry, nc)
	for i := 0; i < d.n; i++ {
		nb[i] = d.at(i)
	}
	d.buf = nb
	d.head = 0
}

func (d *rwDeque) popFront() rwEntry {
	e := d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return e
}

func (d *rwDeque) searchTickAfter(s Tick) int {
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

// rwCopy is one independent repetition of the randomized wave. The final
// estimate is the median across copies, which drives the failure probability
// below δ.
type rwCopy struct {
	seed   uint64
	levels []rwDeque
}

// RW is a randomized wave (Gibbons & Tirthapura) for duplicate-insensitive
// basic counting over a sliding window. Every event carries a unique
// identifier; a hash of the identifier assigns the event to level l with
// probability 2^-(l+1), and the event is stored in levels 0..l, each level
// keeping its most recent Θ(1/ε²) events. A suffix count is estimated at the
// finest level covering the query boundary as (events in range) · 2^level.
//
// Because the level assignment is a pure function of the event identifier,
// the position-wise union of several waves built with the same seed is again
// a wave, which is the lossless aggregation property exploited in Section
// 5.2 — at the cost of Θ(1/ε²) space instead of the deterministic synopses'
// Θ(1/ε).
type RW struct {
	cfg    Config
	c      int // capacity per level
	copies []rwCopy
	salt   uint64 // mixed into auto-generated event identifiers
	seq    uint64 // auto-identifier sequence
	now    Tick
	count  uint64 // arrivals since the beginning of the stream
}

// NewRW constructs a randomized wave providing an (ε,δ) approximation over a
// window of cfg.Length ticks, sized for cfg.UpperBound arrivals per window.
func NewRW(cfg Config) (*RW, error) {
	if err := cfg.Validate(AlgoRW); err != nil {
		return nil, err
	}
	c := rwCapacity(cfg.Epsilon)
	L := waveLevels(cfg.UpperBound, c)
	reps := rwRepetitions(cfg.Delta)
	w := &RW{
		cfg:    cfg,
		c:      c,
		copies: make([]rwCopy, reps),
		salt:   hashing.Mix64(atomic.AddUint64(&rwSaltCounter, 1) * 0x9e3779b97f4a7c15),
	}
	for r := range w.copies {
		w.copies[r].seed = hashing.Mix64(cfg.Seed ^ uint64(r+1)*0xD1B54A32D192ED03)
		w.copies[r].levels = make([]rwDeque, L+1)
		for j := range w.copies[r].levels {
			w.copies[r].levels[j] = newRWDeque(c)
		}
	}
	return w, nil
}

// Config returns the configuration the wave was built with.
func (w *RW) Config() Config { return w.cfg }

// SetIDSalt overrides the salt mixed into auto-generated event identifiers.
// Waves merged together must have been fed events with globally unique
// identifiers; within one process the default per-instance salt guarantees
// that, while multi-process deployments should set an explicit site salt.
func (w *RW) SetIDSalt(salt uint64) { w.salt = salt }

// Add registers one arrival at tick t under an auto-generated unique
// identifier.
func (w *RW) Add(t Tick) {
	w.seq++
	w.AddID(t, hashing.Mix64(w.salt^w.seq))
}

// AddN registers n arrivals at tick t.
func (w *RW) AddN(t Tick, n uint64) {
	for i := uint64(0); i < n; i++ {
		w.Add(t)
	}
	if n == 0 {
		w.Advance(t)
	}
}

// AddID registers one arrival at tick t with an explicit unique event
// identifier. Feeding the same identifier twice leaves the estimate
// unchanged in expectation (duplicate insensitivity).
func (w *RW) AddID(t Tick, id uint64) {
	if t == 0 {
		t = 1 // ticks are 1-based
	}
	if t < w.now {
		t = w.now
	}
	w.now = t
	w.count++
	for r := range w.copies {
		cp := &w.copies[r]
		top := len(cp.levels) - 1
		l := hashing.GeometricLevel(cp.seed, id, top)
		e := rwEntry{t: t, id: id}
		for j := 0; j <= l; j++ {
			cp.levels[j].pushBack(e)
		}
	}
	w.expire()
}

// Advance moves the window to tick t, expiring old entries.
func (w *RW) Advance(t Tick) {
	if t > w.now {
		w.now = t
	}
	w.expire()
}

// Now reports the latest observed tick.
func (w *RW) Now() Tick { return w.now }

func (w *RW) expire() {
	if w.now < w.cfg.Length {
		return
	}
	cut := w.now - w.cfg.Length
	for r := range w.copies {
		cp := &w.copies[r]
		for j := range cp.levels {
			d := &cp.levels[j]
			for d.n > 0 && d.front().t <= cut {
				d.popFront()
			}
		}
	}
}

// EstimateSince estimates the number of arrivals with tick > since as the
// median of the per-copy estimates.
func (w *RW) EstimateSince(since Tick) float64 {
	if w.count == 0 {
		return 0
	}
	if w.now >= w.cfg.Length {
		if ws := w.now - w.cfg.Length; since < ws {
			since = ws
		}
	}
	ests := make([]float64, len(w.copies))
	for r := range w.copies {
		ests[r] = w.copies[r].estimate(since)
	}
	sort.Float64s(ests)
	return ests[len(ests)/2]
}

func (cp *rwCopy) estimate(since Tick) float64 {
	j := len(cp.levels) - 1
	for cand := 0; cand < len(cp.levels); cand++ {
		d := &cp.levels[cand]
		if !d.evicted || (d.n > 0 && d.front().t <= since) {
			j = cand
			break
		}
	}
	d := &cp.levels[j]
	m := d.n - d.searchTickAfter(since)
	return float64(m) * float64(uint64(1)<<uint(j))
}

// EstimateRange estimates arrivals within the last r ticks.
func (w *RW) EstimateRange(r Tick) float64 {
	r = clampRange(r, w.cfg.Length)
	return w.EstimateSince(rangeToSince(w.now, r))
}

// EstimateWindow estimates arrivals within the whole window.
func (w *RW) EstimateWindow() float64 { return w.EstimateRange(w.cfg.Length) }

// MemoryBytes reports the (fixed) heap footprint of the wave.
func (w *RW) MemoryBytes() int {
	const entryBytes = 16
	n := 96
	for r := range w.copies {
		for j := range w.copies[r].levels {
			n += 40 + cap(w.copies[r].levels[j].buf)*entryBytes
		}
	}
	return n
}

// Reset empties the wave, keeping its configuration and hash seeds.
func (w *RW) Reset() {
	for r := range w.copies {
		for j := range w.copies[r].levels {
			d := &w.copies[r].levels[j]
			d.head, d.n, d.evicted = 0, 0, false
		}
	}
	w.seq = 0
	w.count = 0
	w.now = 0
}

// Copies reports the number of independent repetitions.
func (w *RW) Copies() int { return len(w.copies) }

// Levels reports the number of levels per copy.
func (w *RW) Levels() int { return len(w.copies[0].levels) }

// Mergeable reports whether two waves share configuration and hash seeds and
// can therefore be losslessly aggregated.
func (w *RW) Mergeable(other *RW) bool {
	if other == nil || len(w.copies) != len(other.copies) {
		return false
	}
	if w.cfg.Epsilon != other.cfg.Epsilon || w.cfg.Delta != other.cfg.Delta ||
		w.cfg.Length != other.cfg.Length || w.cfg.Model != other.cfg.Model ||
		w.cfg.Seed != other.cfg.Seed {
		return false
	}
	for r := range w.copies {
		if w.copies[r].seed != other.copies[r].seed {
			return false
		}
	}
	return true
}

// MergeRW aggregates randomized waves built with identical configuration and
// seeds into a single wave covering the union of their events (Section 5.2).
// Level l of the output is the tick-sorted concatenation of the inputs'
// level-l entries, truncated to the most recent capacity; levels beyond the
// inputs' level count (needed when the combined stream exceeds one input's
// u(N,S)) are populated by re-deriving each event's level from its
// identifier, mirroring the paper's rehashing step. The accuracy guarantees
// of the output equal those of the inputs — aggregation is lossless.
func MergeRW(out Config, inputs ...*RW) (*RW, error) {
	if len(inputs) == 0 {
		return nil, errors.New("window: MergeRW requires at least one input")
	}
	first := inputs[0]
	for i, in := range inputs[1:] {
		if in == nil {
			return nil, fmt.Errorf("window: MergeRW input %d is nil", i+1)
		}
		if !first.Mergeable(in) {
			return nil, fmt.Errorf("window: MergeRW input %d has incompatible configuration or seeds", i+1)
		}
	}
	if out.Model != first.cfg.Model {
		return nil, errors.New("window: MergeRW output model must match inputs")
	}
	out.Epsilon = first.cfg.Epsilon
	out.Delta = first.cfg.Delta
	out.Length = first.cfg.Length
	out.Seed = first.cfg.Seed
	if out.UpperBound < first.cfg.UpperBound {
		var sum uint64
		for _, in := range inputs {
			sum += in.cfg.UpperBound
		}
		out.UpperBound = sum
	}
	merged, err := NewRW(out)
	if err != nil {
		return nil, err
	}
	var now Tick
	var count uint64
	for _, in := range inputs {
		if in.now > now {
			now = in.now
		}
		count += in.count
	}
	merged.now = now
	merged.count = count
	inLevels := first.Levels()
	for r := range merged.copies {
		mcp := &merged.copies[r]
		top := len(mcp.levels) - 1
		for j := 0; j < inLevels && j <= top; j++ {
			entries := collectLevel(inputs, r, j)
			for _, e := range entries {
				mcp.levels[j].pushBack(e)
			}
		}
		// Deeper levels than the inputs had: re-derive membership from the
		// event identifiers stored at the inputs' top level.
		if top >= inLevels {
			base := collectLevel(inputs, r, inLevels-1)
			for j := inLevels; j <= top; j++ {
				for _, e := range base {
					if hashing.GeometricLevel(mcp.seed, e.id, top) >= j {
						mcp.levels[j].pushBack(e)
					}
				}
			}
		}
	}
	merged.expire()
	return merged, nil
}

// collectLevel gathers level j of repetition r across all inputs, sorted by
// tick with duplicate identifiers removed (union semantics).
func collectLevel(inputs []*RW, r, j int) []rwEntry {
	var all []rwEntry
	for _, in := range inputs {
		d := &in.copies[r].levels[j]
		for i := 0; i < d.n; i++ {
			all = append(all, d.at(i))
		}
	}
	// Not the EH/DW run merger: equal-tick entries carry distinct ids, so this
	// sort's tie order is byte-visible in the merged rings and must not change.
	sort.Slice(all, func(a, b int) bool { return all[a].t < all[b].t })
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
