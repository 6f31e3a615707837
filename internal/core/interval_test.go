package core

import (
	"math"
	"math/rand"
	"testing"

	"ecmsketch/internal/window"
)

func TestECMEstimateIntervalAgainstOracle(t *testing.T) {
	const eps, N = 0.1, 2000
	s := mustECM(t, Params{Epsilon: eps, Delta: 0.1, WindowLength: N, Seed: 21})
	oracle := newExactOracle(N)
	rng := rand.New(rand.NewSource(77))
	zipf := rand.NewZipf(rng, 1.2, 1, 200)
	var now Tick
	for i := 0; i < 20000; i++ {
		now += Tick(rng.Intn(2))
		k := zipf.Uint64()
		s.Add(k, now)
		oracle.add(k, now)
	}
	s.Advance(now)
	var ws Tick
	if now > N {
		ws = now - N
	}
	l1 := float64(oracle.totalIn(N))
	for trial := 0; trial < 100; trial++ {
		from := ws + Tick(rng.Intn(int(now-ws)))
		to := from + Tick(rng.Intn(int(now-from))+1)
		k := uint64(rng.Intn(20))
		got := s.EstimateInterval(k, from, to)
		// Exact interval frequency from two suffix counts.
		x := oracle.perKey[k]
		var want float64
		if x != nil {
			x.Advance(now)
			want = float64(x.CountSince(from)) - float64(x.CountSince(to))
		}
		// Interval queries carry 2ε_sw window error plus the CM collision
		// term; bound loosely by 2ε·‖a‖₁.
		if math.Abs(got-want) > 2*eps*l1+1 {
			t.Errorf("EstimateInterval(%d, %d, %d) = %v, exact %v", k, from, to, got, want)
		}
	}
	// Degenerate intervals.
	if got := s.EstimateInterval(1, 50, 50); got != 0 {
		t.Errorf("empty interval = %v", got)
	}
	if got := s.EstimateInterval(1, 60, 50); got != 0 {
		t.Errorf("inverted interval = %v", got)
	}
}

func TestECMDimensionOverrides(t *testing.T) {
	s := mustECM(t, Params{
		Epsilon: 0.1, Delta: 0.1, WindowLength: 100,
		Width: 64, Depth: 5, Seed: 1,
	})
	if s.Width() != 64 || s.Depth() != 5 {
		t.Errorf("dimensions %dx%d, want 5x64", s.Depth(), s.Width())
	}
	// Overridden dimensions round-trip through serialization.
	s.Add(1, 1)
	dec, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Width() != 64 || dec.Depth() != 5 {
		t.Errorf("decoded dimensions %dx%d", dec.Depth(), dec.Width())
	}
}

func TestECMAdvanceOnlyStream(t *testing.T) {
	s := mustECM(t, Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Seed: 1})
	s.Advance(1000)
	if s.Now() != 1000 || s.Count() != 0 {
		t.Errorf("Advance-only state: now=%d count=%d", s.Now(), s.Count())
	}
	if got := s.Estimate(7, 100); got != 0 {
		t.Errorf("estimate on empty sketch = %v", got)
	}
	s.Add(7, 1500)
	if got := s.Estimate(7, 100); got != 1 {
		t.Errorf("estimate = %v, want 1", got)
	}
}

// TestECMAddNZero pins the write rule's multiplicity clause on the
// single-event path (see Event): N == 0 is one arrival, exactly as in a
// batch, and it moves the clock.
func TestECMAddNZero(t *testing.T) {
	s := mustECM(t, Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Seed: 1})
	s.AddN(3, 10, 0)
	if s.Count() != 1 {
		t.Errorf("AddN(.,.,0) counted %d arrivals, want 1", s.Count())
	}
	if s.Now() != 10 {
		t.Errorf("AddN(.,.,0) did not advance clock: %d", s.Now())
	}
	if got := s.Estimate(3, 100); got != 1 {
		t.Errorf("Estimate after AddN(.,.,0) = %v, want 1", got)
	}
}

func TestECMRWCountBasedSupported(t *testing.T) {
	// RW counters work under the count-based model for single-stream use.
	s := mustECM(t, Params{
		Epsilon: 0.25, Delta: 0.2, Algorithm: window.AlgoRW,
		Model: window.CountBased, WindowLength: 200, UpperBound: 2000, Seed: 6,
	})
	for seq := Tick(1); seq <= 1000; seq++ {
		s.Add(uint64(seq%4), seq)
	}
	got := s.Estimate(0, 200)
	if math.Abs(got-50) > 40 {
		t.Errorf("count-based RW Estimate = %v, want ≈50", got)
	}
}
