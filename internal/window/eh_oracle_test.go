package window

// The per-object exponential histogram: one growable deque per size class,
// the textbook layout EHBank replaced in production. It stays here as the
// differential oracle — same algorithm, independent storage and codec — that
// the bank is held to bit for bit.

import (
	"fmt"
	"math"
)

// bucketDeque is a ring buffer of buckets ordered oldest (front) to newest
// (back). Per the paper's implementation notes (§7.1), each histogram level
// keeps its own deque, which gives random access for binary search and
// constant-time merges of the two oldest buckets.
type bucketDeque struct {
	buf  []bucket
	head int
	n    int
}

func (d *bucketDeque) len() int { return d.n }

func (d *bucketDeque) at(i int) bucket {
	return d.buf[(d.head+i)%len(d.buf)]
}

func (d *bucketDeque) front() bucket { return d.buf[d.head] }

func (d *bucketDeque) pushBack(b bucket) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = b
	d.n++
}

func (d *bucketDeque) popFront() bucket {
	b := d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return b
}

func (d *bucketDeque) grow() {
	nc := len(d.buf) * 2
	if nc == 0 {
		nc = 4
	}
	nb := make([]bucket, nc)
	for i := 0; i < d.n; i++ {
		nb[i] = d.at(i)
	}
	d.buf = nb
	d.head = 0
}

// searchEndAfter returns the index (from the front) of the oldest bucket with
// end > s, or d.n if none.
func (d *bucketDeque) searchEndAfter(s Tick) int {
	lo, hi := 0, d.n
	for lo < hi {
		mid := (lo + hi) / 2
		if d.at(mid).end > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// EH is an exponential histogram (Datar, Gionis, Indyk, Motwani) for the
// basic-counting problem over a sliding window. It maintains buckets of
// exponentially increasing sizes; at most k/2+2 buckets exist per size class,
// where k = ⌈1/ε⌉, which bounds the relative error of any suffix query by ε:
// the only uncertain contribution is the oldest, partially overlapping
// bucket, whose size is at most an ε fraction of the arrivals after it
// (invariant 1 of the paper).
//
// Unlike the textbook formulation, each bucket also records the tick of its
// oldest arrival. This costs one extra word per bucket and is what enables
// the order-preserving aggregation of Section 5.1 (Theorem 4); it also lets
// point queries skip the half-bucket correction when the query boundary
// falls in the gap between two buckets.
type EH struct {
	cfg      Config
	capPerLv int // merge threshold per size class: ⌈k/2⌉+2
	levels   []bucketDeque
	total    uint64 // sum of sizes of live buckets
	now      Tick
	started  bool
	first    Tick // tick of the earliest arrival still summarized
}

// NewEH constructs an exponential histogram with relative error cfg.Epsilon
// over a window of cfg.Length ticks.
func NewEH(cfg Config) (*EH, error) {
	if err := cfg.Validate(AlgoEH); err != nil {
		return nil, err
	}
	k := int(math.Ceil(1 / cfg.Epsilon))
	return &EH{
		cfg:      cfg,
		capPerLv: (k+1)/2 + 2,
	}, nil
}

// Config returns the configuration the histogram was built with.
func (h *EH) Config() Config { return h.cfg }

// Add registers one arrival at tick t.
func (h *EH) Add(t Tick) { h.AddN(t, 1) }

// AddN registers n simultaneous arrivals at tick t. The exponential
// histogram's canonical form requires power-of-two bucket sizes, so the n
// arrivals are inserted as n unit buckets; cascading merges keep the
// amortized cost per unit constant.
func (h *EH) AddN(t Tick, n uint64) {
	if n == 0 {
		h.Advance(t)
		return
	}
	if t == 0 {
		t = 1 // ticks are 1-based; tick 0 means "before the stream"
	}
	if t < h.now {
		t = h.now // clamp slight out-of-order arrivals
	}
	h.now = t
	if !h.started || h.total == 0 {
		h.first = t
		h.started = true
	}
	for i := uint64(0); i < n; i++ {
		h.insertUnit(t)
	}
	h.expire()
}

// Advance moves the window to tick t, expiring old buckets.
func (h *EH) Advance(t Tick) {
	if t > h.now {
		h.now = t
	}
	h.expire()
}

// Now reports the latest observed tick.
func (h *EH) Now() Tick { return h.now }

func (h *EH) insertUnit(t Tick) {
	if len(h.levels) == 0 {
		h.levels = append(h.levels, bucketDeque{})
	}
	h.levels[0].pushBack(bucket{start: t, end: t})
	h.total++
	// Cascade merges: whenever a size class exceeds its budget, merge its
	// two oldest buckets into one bucket of the next class.
	for lv := 0; lv < len(h.levels); lv++ {
		if h.levels[lv].len() <= h.capPerLv {
			break
		}
		older := h.levels[lv].popFront()
		newer := h.levels[lv].popFront()
		if lv+1 == len(h.levels) {
			h.levels = append(h.levels, bucketDeque{})
		}
		h.levels[lv+1].pushBack(bucket{start: older.start, end: newer.end})
	}
}

// expire drops buckets whose newest arrival left the window.
func (h *EH) expire() {
	if h.now < h.cfg.Length {
		return
	}
	cut := h.now - h.cfg.Length // ticks ≤ cut are outside the window
	for {
		lv := h.oldestLevel()
		if lv < 0 {
			return
		}
		b := h.levels[lv].front()
		if b.end > cut {
			return
		}
		h.levels[lv].popFront()
		h.total -= uint64(1) << uint(lv)
	}
}

// oldestLevel returns the highest non-empty level, which holds the globally
// oldest bucket, or -1 when the histogram is empty.
func (h *EH) oldestLevel() int {
	for lv := len(h.levels) - 1; lv >= 0; lv-- {
		if h.levels[lv].len() > 0 {
			return lv
		}
	}
	return -1
}

// EstimateSince estimates the number of arrivals with tick > since.
// Buckets fully inside the range are counted exactly; the oldest bucket
// overlapping the boundary contributes half its size.
func (h *EH) EstimateSince(since Tick) float64 {
	if h.total == 0 {
		return 0
	}
	// Clamp the query to the window.
	if h.now >= h.cfg.Length {
		if ws := h.now - h.cfg.Length; since < ws {
			since = ws
		}
	}
	est := 0.0
	straddleResolved := false
	for lv := len(h.levels) - 1; lv >= 0; lv-- {
		d := &h.levels[lv]
		idx := d.searchEndAfter(since)
		cnt := d.len() - idx
		if cnt == 0 {
			continue
		}
		size := float64(uint64(1) << uint(lv))
		if !straddleResolved {
			// The globally oldest bucket with end > since lives in the
			// highest level that has one; only it can straddle the boundary.
			straddleResolved = true
			if d.at(idx).start <= since {
				est += size / 2
				cnt--
			}
		}
		est += float64(cnt) * size
	}
	return est
}

// EstimateRange estimates arrivals within the last r ticks.
func (h *EH) EstimateRange(r Tick) float64 {
	r = clampRange(r, h.cfg.Length)
	return h.EstimateSince(rangeToSince(h.now, r))
}

// EstimateWindow estimates arrivals within the whole window.
func (h *EH) EstimateWindow() float64 { return h.EstimateRange(h.cfg.Length) }

// Buckets returns a snapshot of the live buckets ordered oldest to newest.
func (h *EH) Buckets() []Bucket {
	out := make([]Bucket, 0, h.numBuckets())
	for lv := len(h.levels) - 1; lv >= 0; lv-- {
		d := &h.levels[lv]
		size := uint64(1) << uint(lv)
		for i := 0; i < d.len(); i++ {
			b := d.at(i)
			out = append(out, Bucket{Start: b.start, End: b.end, Size: size})
		}
	}
	return out
}

func (h *EH) numBuckets() int {
	n := 0
	for i := range h.levels {
		n += h.levels[i].len()
	}
	return n
}

// NumBuckets reports the number of live buckets.
func (h *EH) NumBuckets() int { return h.numBuckets() }

// Total reports the exact sum of live bucket sizes. Note that the oldest
// bucket may partially precede the window, so Total can exceed the true
// window count by up to the oldest bucket's size.
func (h *EH) Total() uint64 { return h.total }

// MemoryBytes reports the heap footprint of the histogram.
func (h *EH) MemoryBytes() int {
	const bucketBytes = 16 // two 8-byte ticks; size is implied by the level
	n := 64                // struct header
	for i := range h.levels {
		n += 32 + cap(h.levels[i].buf)*bucketBytes
	}
	return n
}

// Reset empties the histogram, keeping its configuration.
func (h *EH) Reset() {
	h.levels = nil
	h.total = 0
	h.now = 0
	h.started = false
	h.first = 0
}

// checkInvariant verifies invariant 1 of the paper for every bucket:
// |b_j| ≤ 2ε(1 + Σ_{i<j} |b_i|), with bucket 1 the most recent. It returns
// the first violation found, and is used by tests only.
func (h *EH) checkInvariant() error {
	bs := h.Buckets() // oldest → newest
	// Walk from the newest backwards accumulating the "more recent" sum.
	var recent uint64
	for i := len(bs) - 1; i >= 0; i-- {
		b := bs[i]
		// Allow the standard slack of one size class: the canonical EH bound
		// is |b| ≤ 2ε(1+recent)+1 after rounding k to an integer.
		limit := 2*h.cfg.Epsilon*float64(1+recent) + 1
		if float64(b.Size) > limit+1e-9 {
			return fmt.Errorf("window: EH invariant violated: bucket size %d > %.3f (recent=%d)", b.Size, limit, recent)
		}
		recent += b.Size
	}
	return nil
}
