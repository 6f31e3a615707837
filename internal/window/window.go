// Package window implements the sliding-window counting synopses that back
// the counters of an ECM-sketch: exponential histograms (Datar et al.),
// deterministic waves and randomized waves (Gibbons & Tirthapura), plus an
// exact counter used as ground truth in tests and experiments.
//
// All synopses solve the basic-counting problem: maintain the number of
// arrivals ("true bits") inside a sliding window of length N, where N is
// either a span of time units (time-based model) or a number of stream
// arrivals (count-based model). Both models are driven through the same
// interface: the caller supplies a monotonically non-decreasing Tick with
// every arrival — a timestamp in the time-based model, the global arrival
// sequence number in the count-based model. Regressions are clamped, per the
// tick clamping contract documented on ecmsketch.Ingestor.
//
// Each synopsis has one implementation: a flat bank of n counters in one
// arena (EHBank, DWBank, RWBank) behind the Bank contract. The textbook
// per-object forms of the same algorithms are kept in this package's
// *_oracle_test.go files, where the banks are held to them bit for bit.
package window

import (
	"errors"
	"fmt"
)

// Tick is a logical timestamp. Time-based windows measure ticks in the
// caller's time unit (e.g. milliseconds); count-based windows measure ticks
// in stream arrivals. Ticks are 1-based: tick 0 means "before the stream",
// and arrivals stamped 0 are clamped to tick 1.
type Tick = uint64

// Model selects how the sliding window is measured.
type Model uint8

const (
	// TimeBased windows cover the last N time units.
	TimeBased Model = iota
	// CountBased windows cover the last N stream arrivals.
	CountBased
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case TimeBased:
		return "time-based"
	case CountBased:
		return "count-based"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Algorithm selects the synopsis implementation behind a Bank.
type Algorithm uint8

const (
	// AlgoEH is the exponential histogram — the paper's default choice.
	AlgoEH Algorithm = iota
	// AlgoDW is the deterministic wave.
	AlgoDW
	// AlgoRW is the randomized wave.
	AlgoRW
	// AlgoExact is an exact counter, used as ground truth.
	AlgoExact
)

// String returns the algorithm name as used in the paper's plots.
func (a Algorithm) String() string {
	switch a {
	case AlgoEH:
		return "EH"
	case AlgoDW:
		return "DW"
	case AlgoRW:
		return "RW"
	case AlgoExact:
		return "Exact"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Config carries the parameters shared by all synopses.
type Config struct {
	// Model selects time-based or count-based windows.
	Model Model
	// Length is the window length N, in ticks.
	Length Tick
	// Epsilon is the maximum relative estimation error ε_sw of the synopsis.
	Epsilon float64
	// Delta is the failure probability of randomized synopses; ignored by
	// deterministic ones.
	Delta float64
	// UpperBound is u(N,S): an upper bound on the number of arrivals within
	// one window. Deterministic and randomized waves size their level
	// structure from it at initialization; exponential histograms ignore it.
	// Zero means "use Length", mirroring the paper's one-event-per-tick
	// default.
	UpperBound uint64
	// Seed derives hash functions for randomized synopses. Counters must
	// share a Seed to be mergeable.
	Seed uint64
}

// MinEpsilon is the smallest accepted per-counter error parameter. A window
// synopsis below it would allocate 10⁴+ buckets per counter — far past any
// sensible operating point — and, more importantly, the bound keeps
// adversarial serialized configurations from driving the Θ(1/ε) and Θ(1/ε²)
// level allocations into overflow.
const MinEpsilon = 1e-4

// MinDelta is the smallest accepted failure probability, bounding the
// repetition count of randomized synopses.
const MinDelta = 1e-9

// Validate checks the configuration, applying documented defaults.
func (c *Config) Validate(algo Algorithm) error {
	if c.Length == 0 {
		return errors.New("window: Length must be positive")
	}
	if algo != AlgoExact {
		if !(c.Epsilon >= MinEpsilon && c.Epsilon < 1) {
			return fmt.Errorf("window: Epsilon must be in [%v,1), got %v", MinEpsilon, c.Epsilon)
		}
	}
	if algo == AlgoRW {
		if !(c.Delta >= MinDelta && c.Delta < 1) {
			return fmt.Errorf("window: Delta must be in [%v,1) for RW, got %v", MinDelta, c.Delta)
		}
	}
	if c.UpperBound == 0 {
		c.UpperBound = uint64(c.Length)
	}
	return nil
}

// rangeToSince converts a query range r ending at now into the exclusive
// lower tick bound, saturating at zero.
func rangeToSince(now, r Tick) Tick {
	if r >= now {
		return 0
	}
	return now - r
}

// clampRange limits a query range to the window length.
func clampRange(r, n Tick) Tick {
	if r > n {
		return n
	}
	return r
}
