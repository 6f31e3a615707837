package window

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// sumOracle is SumEH as it was before it moved onto an EHBank: one
// per-object histogram per bit plane, merged plane by plane with MergeEH.
type sumOracle struct {
	cfg      Config
	maxValue uint64
	bitEH    []*EH
	now      Tick
}

func newSumOracle(t testing.TB, cfg Config, maxValue uint64) *sumOracle {
	t.Helper()
	s := &sumOracle{cfg: cfg, maxValue: maxValue, bitEH: make([]*EH, bits.Len64(maxValue))}
	for i := range s.bitEH {
		h, err := NewEH(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.bitEH[i] = h
	}
	return s
}

func (s *sumOracle) Add(t Tick, v uint64) {
	if t > s.now {
		s.now = t
	}
	for i := 0; v != 0; i++ {
		if v&1 == 1 {
			s.bitEH[i].Add(t)
		} else {
			s.bitEH[i].Advance(t)
		}
		v >>= 1
	}
}

func (s *sumOracle) Advance(t Tick) {
	if t > s.now {
		s.now = t
	}
	for _, h := range s.bitEH {
		h.Advance(t)
	}
}

func (s *sumOracle) SumSince(since Tick) float64 {
	var sum float64
	for i, h := range s.bitEH {
		h.Advance(s.now)
		sum += float64(uint64(1)<<uint(i)) * h.EstimateSince(since)
	}
	return sum
}

func mergeSumOracle(t testing.TB, out Config, maxValue uint64, inputs ...*sumOracle) *sumOracle {
	t.Helper()
	merged := newSumOracle(t, out, maxValue)
	for _, in := range inputs {
		merged.now = max(merged.now, in.now)
	}
	for i := range merged.bitEH {
		var planes []*EH
		for _, in := range inputs {
			if i < len(in.bitEH) {
				planes = append(planes, in.bitEH[i])
			}
		}
		if len(planes) == 0 {
			continue
		}
		m, err := MergeEH(out, planes...)
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		merged.bitEH[i] = m
	}
	merged.Advance(merged.now)
	return merged
}

// TestSumBankMatchesOracle holds the bank-backed SumEH to its per-object
// twin: values with high bits set, idle gaps, more than three windows, then a
// three-input merge whose inputs have different plane counts — SumSince
// bit-equal at every step.
func TestSumBankMatchesOracle(t *testing.T) {
	cfg := Config{Length: 500, Epsilon: 0.1}
	bounds := []uint64{1<<40 - 1, 1<<40 - 1, 1<<20 - 1}
	const outBound = 1<<41 - 1
	rng := rand.New(rand.NewSource(21))
	var banks []*SumEH
	var twins []*sumOracle
	compare := func(step string, got *SumEH, want *sumOracle) {
		t.Helper()
		if got.Now() != want.now {
			t.Fatalf("%s: Now = %d, oracle %d", step, got.Now(), want.now)
		}
		for _, since := range []Tick{0, want.now / 2, want.now - min(want.now, 100), want.now - min(want.now, 499), want.now} {
			if g, w := got.SumSince(since), want.SumSince(since); g != w {
				t.Fatalf("%s: SumSince(%d) = %v, oracle %v", step, since, g, w)
			}
		}
	}
	for k, maxV := range bounds {
		s := mustSumEH(t, cfg, maxV)
		o := newSumOracle(t, cfg, maxV)
		var now Tick
		for i := 0; i < 4000; i++ { // ~2000 ticks of arrivals + gaps: > 3 windows
			switch rng.Intn(50) {
			case 0:
				now += Tick(100 + rng.Intn(700)) // idle gap, sometimes past a whole window
				s.Advance(now)
				o.Advance(now)
			default:
				now += Tick(rng.Intn(2))
				v := rng.Uint64() & maxV
				if rng.Intn(3) == 0 {
					v |= (maxV + 1) >> 1 // force the top bit
				}
				if err := s.Add(now, v); err != nil {
					t.Fatal(err)
				}
				o.Add(now, v)
			}
			if i%37 == 0 {
				compare(fmt.Sprintf("input %d step %d", k, i), s, o)
			}
		}
		compare(fmt.Sprintf("input %d final", k), s, o)
		banks = append(banks, s)
		twins = append(twins, o)
	}
	merged, err := MergeSumEH(cfg, outBound, banks...)
	if err != nil {
		t.Fatal(err)
	}
	want := mergeSumOracle(t, cfg, outBound, twins...)
	compare("merged", merged, want)
	// The merged summer keeps working like its twin.
	now := want.now
	for i := 0; i < 600; i++ {
		now += Tick(rng.Intn(3))
		v := rng.Uint64() & outBound
		if err := merged.Add(now, v); err != nil {
			t.Fatal(err)
		}
		want.Add(now, v)
	}
	compare("merged + arrivals", merged, want)
}
