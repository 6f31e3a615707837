package window

// exactEntry stores n arrivals at tick t together with the cumulative count
// of arrivals up to and including this entry, enabling O(log) suffix queries.
type exactEntry struct {
	t   Tick
	n   uint64
	cum uint64 // arrivals up to and including this entry since last compaction
}

// Exact is a reference counter that answers every suffix query exactly by
// retaining all arrivals inside the window. It exists as the ground truth
// against which the approximate synopses are evaluated and property-tested;
// its memory grows linearly with the window content.
type Exact struct {
	cfg     Config
	entries []exactEntry
	head    int // index of the first live entry
	base    uint64
	now     Tick
}

// NewExact constructs an exact sliding-window counter.
func NewExact(cfg Config) (*Exact, error) {
	if err := cfg.Validate(AlgoExact); err != nil {
		return nil, err
	}
	return &Exact{cfg: cfg}, nil
}

// Config returns the configuration the counter was built with.
func (x *Exact) Config() Config { return x.cfg }

// Add registers one arrival at tick t.
func (x *Exact) Add(t Tick) { x.AddN(t, 1) }

// AddN registers n arrivals at tick t.
func (x *Exact) AddN(t Tick, n uint64) {
	if t == 0 {
		t = 1 // ticks are 1-based
	}
	if t < x.now {
		t = x.now
	}
	x.now = t
	if n == 0 {
		x.expire()
		return
	}
	// Coalesce arrivals sharing a tick.
	if m := len(x.entries); m > x.head && x.entries[m-1].t == t {
		x.entries[m-1].n += n
		x.entries[m-1].cum += n
	} else {
		var cum uint64
		if m > x.head {
			cum = x.entries[m-1].cum
		}
		x.entries = append(x.entries, exactEntry{t: t, n: n, cum: cum + n})
	}
	x.expire()
}

// Advance moves the window to tick t, expiring old arrivals.
func (x *Exact) Advance(t Tick) {
	if t > x.now {
		x.now = t
	}
	x.expire()
}

// Now reports the latest observed tick.
func (x *Exact) Now() Tick { return x.now }

func (x *Exact) expire() {
	if x.now < x.cfg.Length {
		return
	}
	cut := x.now - x.cfg.Length
	for x.head < len(x.entries) && x.entries[x.head].t <= cut {
		x.head++
	}
	// Compact once the dead prefix dominates, keeping amortized O(1) cost.
	if x.head > 0 && x.head*2 >= len(x.entries) && x.head >= 64 {
		x.compact()
	}
	if x.head == len(x.entries) {
		x.entries = x.entries[:0]
		x.head = 0
		x.base = 0
	}
}

func (x *Exact) compact() {
	x.base = x.entries[x.head-1].cum
	live := copy(x.entries, x.entries[x.head:])
	x.entries = x.entries[:live]
	x.head = 0
	for i := range x.entries {
		x.entries[i].cum -= x.base
	}
	x.base = 0
}

// CountSince returns the exact number of arrivals with tick > since.
func (x *Exact) CountSince(since Tick) uint64 {
	if x.now >= x.cfg.Length {
		if ws := x.now - x.cfg.Length; since < ws {
			since = ws
		}
	}
	live := x.entries[x.head:]
	if len(live) == 0 {
		return 0
	}
	// Binary search for the first live entry with t > since.
	lo, hi := 0, len(live)
	for lo < hi {
		mid := (lo + hi) / 2
		if live[mid].t > since {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(live) {
		return 0
	}
	total := live[len(live)-1].cum
	var before uint64
	if lo > 0 {
		before = live[lo-1].cum
	} else if x.head > 0 {
		before = x.entries[x.head-1].cum
	}
	return total - before
}

// EstimateSince returns the exact count as a float, satisfying Counter.
func (x *Exact) EstimateSince(since Tick) float64 { return float64(x.CountSince(since)) }

// EstimateRange returns the exact count of arrivals within the last r ticks.
func (x *Exact) EstimateRange(r Tick) float64 {
	r = clampRange(r, x.cfg.Length)
	return x.EstimateSince(rangeToSince(x.now, r))
}

// CountRange returns the exact count within the last r ticks.
func (x *Exact) CountRange(r Tick) uint64 {
	r = clampRange(r, x.cfg.Length)
	return x.CountSince(rangeToSince(x.now, r))
}

// MemoryBytes reports the heap footprint.
func (x *Exact) MemoryBytes() int { return 64 + cap(x.entries)*24 }

// Reset empties the counter.
func (x *Exact) Reset() {
	x.entries = x.entries[:0]
	x.head = 0
	x.base = 0
	x.now = 0
}

// CountInterval returns the exact count of arrivals with tick in (from, to]:
// an arbitrary sub-interval of the window, not just a suffix.
func (x *Exact) CountInterval(from, to Tick) uint64 {
	if to <= from {
		return 0
	}
	a := x.CountSince(from)
	b := x.CountSince(to)
	if b > a {
		return 0
	}
	return a - b
}
