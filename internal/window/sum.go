package window

import (
	"errors"
	"fmt"
	"math/bits"
)

// SumEH maintains the SUM of non-negative integer values over a sliding
// window with relative error ε — the "sums" extension of the exponential
// histogram (Datar et al., Section 5). Where the basic counter treats an
// arrival of value v as v unit insertions (O(v) work), SumEH decomposes
// values bitwise across log₂(maxValue) parallel exponential histograms —
// the cells of one EHBank: bit i of each value feeds cell i, and the windowed
// sum is Σ_i 2^i · EH_i(range). Each per-bit estimate carries relative error
// ε, so the combined sum does too, at O(log maxValue) work per arrival
// regardless of the value.
//
// ECM-sketches use the basic counter (stream increments are almost always
// 1); SumEH serves workloads where arrivals carry weights — bytes per
// packet, sale amounts — and is mergeable exactly like its per-bit
// histograms.
type SumEH struct {
	maxValue uint64
	planes   *EHBank // cell i counts the arrivals whose value has bit i set
	now      Tick
}

// NewSumEH constructs a windowed summer for values in [0, maxValue].
func NewSumEH(cfg Config, maxValue uint64) (*SumEH, error) {
	if maxValue == 0 {
		return nil, fmt.Errorf("window: SumEH maxValue must be positive")
	}
	planes, err := NewEHBank(cfg, bits.Len64(maxValue))
	if err != nil {
		return nil, err
	}
	return &SumEH{maxValue: maxValue, planes: planes}, nil
}

// Config returns the configuration the summer was built with.
func (s *SumEH) Config() Config { return s.planes.Config() }

// MaxValue returns the per-arrival value bound.
func (s *SumEH) MaxValue() uint64 { return s.maxValue }

// Add registers an arrival of value v at tick t.
func (s *SumEH) Add(t Tick, v uint64) error {
	if v > s.maxValue {
		return fmt.Errorf("window: value %d exceeds SumEH bound %d", v, s.maxValue)
	}
	if t > s.now {
		s.now = t
	}
	for i := 0; v != 0; i++ {
		if v&1 == 1 {
			s.planes.Add(i, t)
		} else {
			s.planes.Advance(i, t)
		}
		v >>= 1
	}
	return nil
}

// Advance moves the window forward without an arrival.
func (s *SumEH) Advance(t Tick) {
	if t > s.now {
		s.now = t
	}
	AdvanceAll(s.planes, t, nil)
}

// Now reports the latest tick observed.
func (s *SumEH) Now() Tick { return s.now }

// SumSince estimates the sum of values with tick > since.
func (s *SumEH) SumSince(since Tick) float64 {
	var sum float64
	for i := 0; i < s.planes.Len(); i++ {
		s.planes.Advance(i, s.now)
		sum += float64(uint64(1)<<uint(i)) * s.planes.EstimateSince(i, since)
	}
	return sum
}

// SumRange estimates the sum of values within the last r ticks.
func (s *SumEH) SumRange(r Tick) float64 {
	r = clampRange(r, s.Config().Length)
	return s.SumSince(rangeToSince(s.now, r))
}

// SumWindow estimates the sum over the whole window.
func (s *SumEH) SumWindow() float64 { return s.SumRange(s.Config().Length) }

// MemoryBytes reports the footprint of the bit planes' arena.
func (s *SumEH) MemoryBytes() int { return 48 + s.planes.MemoryBytes() }

// Reset empties the summer.
func (s *SumEH) Reset() {
	s.planes.Reset()
	s.now = 0
}

// MergeSumEH aggregates per-site summers (time-based windows only) by
// merging each bit plane with the Theorem 4 replay; the result carries the
// composed error ε + ε' + εε' per bit plane and hence overall.
func MergeSumEH(out Config, maxValue uint64, inputs ...*SumEH) (*SumEH, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("window: MergeSumEH requires at least one input")
	}
	if out.Model != TimeBased {
		return nil, errors.New("window: order-preserving aggregation requires time-based windows")
	}
	var now Tick
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("window: MergeSumEH input %d is nil", i)
		}
		if in.maxValue > maxValue {
			return nil, fmt.Errorf("window: MergeSumEH input %d bound %d exceeds output bound %d", i, in.maxValue, maxValue)
		}
		if m := in.Config().Model; m != TimeBased {
			return nil, fmt.Errorf("window: MergeSumEH input %d is %v; count-based exponential histograms cannot be aggregated", i, m)
		}
		now = max(now, in.now)
	}
	merged, err := NewSumEH(out, maxValue)
	if err != nil {
		return nil, err
	}
	planes := make([]*EHBank, 0, len(inputs))
	for i := 0; i < merged.planes.Len(); i++ {
		planes = planes[:0]
		for _, in := range inputs {
			if i < in.planes.Len() {
				planes = append(planes, in.planes)
			}
		}
		merged.planes.MergeCellFrom(i, i, now, planes)
	}
	merged.now = now
	return merged, nil
}
