package window

import (
	"fmt"
	"testing"
)

// The single-counter surface the per-object oracles are driven through, and
// the adapter that drives cell 0 of a one-cell bank through the same
// surface, so that every accuracy and edge-case test written against a
// Counter checks the code that ships beside its oracle.

// Counter is a sliding-window basic counter. Implementations estimate the
// number of arrivals inside any suffix of the window with bounded relative
// error.
//
// Ticks passed to Add/AddN/Advance must be non-decreasing; regressions are
// clamped.
type Counter interface {
	// Add registers one arrival at tick t.
	Add(t Tick)
	// AddN registers n simultaneous arrivals at tick t.
	AddN(t Tick, n uint64)
	// Advance moves the window forward to tick t without an arrival,
	// expiring content that falls out of the window.
	Advance(t Tick)
	// Now reports the latest tick observed.
	Now() Tick
	// EstimateSince estimates the number of arrivals with tick strictly
	// greater than since (clamped to the window). Estimates are fractional
	// because straddling buckets contribute half their size.
	EstimateSince(since Tick) float64
	// EstimateRange estimates the arrivals within the last r ticks, i.e.
	// ticks in (Now()-r, Now()]. r is clamped to the window length.
	EstimateRange(r Tick) float64
	// EstimateWindow estimates the arrivals in the whole window.
	EstimateWindow() float64
	// MemoryBytes reports the current heap footprint of the synopsis.
	MemoryBytes() int
	// Reset empties the synopsis, keeping its configuration.
	Reset()
}

// New constructs a Counter for the given algorithm.
func New(algo Algorithm, cfg Config) (Counter, error) {
	if err := cfg.Validate(algo); err != nil {
		return nil, err
	}
	switch algo {
	case AlgoEH:
		return NewEH(cfg)
	case AlgoDW:
		return NewDW(cfg)
	case AlgoRW:
		return NewRW(cfg)
	case AlgoExact:
		return NewExact(cfg)
	default:
		return nil, fmt.Errorf("window: unknown algorithm %v", algo)
	}
}

// Interval queries: estimate the arrivals inside an arbitrary sub-interval
// (from, to] of the window, not just a suffix. Every synopsis answers them
// as the difference of two suffix estimates,
//
//	count(from, to] = count(from, now] − count(to, now],
//
// which doubles the worst-case error to 2ε (each suffix carries its own
// straddling-bucket uncertainty). The paper's queries are suffixes — "the
// last r time units" — but dashboards routinely ask "between 9:00 and 9:05",
// so the library supports both and documents the error doubling.

// IntervalEstimator is implemented by all counters in this package.
type IntervalEstimator interface {
	EstimateSince(since Tick) float64
}

// EstimateInterval estimates arrivals with tick in (from, to] using two
// suffix queries against c. Results are clamped at zero (the two suffix
// estimates carry independent half-bucket corrections and may invert on
// near-empty intervals). The relative error is at most 2ε of the larger
// suffix count.
func EstimateInterval(c IntervalEstimator, from, to Tick) float64 {
	if to <= from {
		return 0
	}
	est := c.EstimateSince(from) - c.EstimateSince(to)
	if est < 0 {
		return 0
	}
	return est
}

// EstimateInterval estimates arrivals with tick in (from, to] — see the
// package-level EstimateInterval for error semantics.
func (h *EH) EstimateInterval(from, to Tick) float64 { return EstimateInterval(h, from, to) }

// EstimateInterval estimates arrivals with tick in (from, to].
func (w *DW) EstimateInterval(from, to Tick) float64 { return EstimateInterval(w, from, to) }

// EstimateInterval estimates arrivals with tick in (from, to].
func (w *RW) EstimateInterval(from, to Tick) float64 { return EstimateInterval(w, from, to) }

// bankCell is cell 0 of a one-cell bank behind the Counter surface: the
// subject that ships, driven exactly as its per-object oracle is.
type bankCell struct{ Bank }

func (c bankCell) Add(t Tick) { c.Bank.Add(0, t) }

func (c bankCell) AddN(t Tick, n uint64) {
	switch b := c.Bank.(type) {
	case *EHBank:
		b.AddN(0, t, n)
	case *DWBank:
		b.AddN(0, t, n)
	default: // randomized waves take identifiers, not multiplicities
		if n == 0 {
			b.Advance(0, t)
		}
		for ; n > 0; n-- {
			b.Add(0, t)
		}
	}
}

// AddID feeds a randomized-wave cell an explicit event identifier.
func (c bankCell) AddID(t Tick, id uint64) { c.Bank.(*RWBank).AddID(0, t, id) }

func (c bankCell) Advance(t Tick)                   { c.Bank.Advance(0, t) }
func (c bankCell) Now() Tick                        { return c.Bank.Now(0) }
func (c bankCell) EstimateSince(since Tick) float64 { return c.Bank.EstimateSince(0, since) }
func (c bankCell) EstimateRange(r Tick) float64     { return c.Bank.EstimateRange(0, r) }
func (c bankCell) EstimateWindow() float64          { return c.EstimateRange(c.Config().Length) }

func (c bankCell) EstimateInterval(from, to Tick) float64 { return EstimateInterval(c, from, to) }

// ehCounter is a Counter that exposes its exponential-histogram buckets: the
// per-object EH and an EH bank cell.
type ehCounter interface {
	Counter
	Buckets() []Bucket
	NumBuckets() int
}

func (c bankCell) Buckets() []Bucket { return c.Bank.(*EHBank).Buckets(0) }
func (c bankCell) NumBuckets() int   { return c.Bank.(*EHBank).NumBuckets(0) }

const subjectIDSalt = 0x5eed

// subject is one implementation under test.
type subject struct {
	name string
	Counter
}

// subjects returns every implementation of algo: the per-object oracle and,
// for the three synopses, the one-cell bank.
func subjects(t testing.TB, algo Algorithm, cfg Config) []subject {
	t.Helper()
	oracle, err := New(algo, cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", algo, err)
	}
	out := []subject{{algo.String(), oracle}}
	if algo != AlgoExact {
		bank, err := NewBank(algo, cfg, 1)
		if err != nil {
			t.Fatalf("NewBank(%v): %v", algo, err)
		}
		if algo == AlgoRW {
			// Default identifier salts depend on how many waves the process
			// built before this one; pin them so a randomized test draws the
			// same identifiers — in both subjects — whatever ran before it.
			oracle.(*RW).SetIDSalt(subjectIDSalt)
			bank.(*RWBank).SetCellIDSalt(0, subjectIDSalt)
		}
		out = append(out, subject{algo.String() + " bank cell", bankCell{bank}})
	}
	return out
}
