package window

import (
	"math/rand"
	"testing"
)

// Edge-case coverage shared across the synopses.

func TestCountersAdvanceBeforeFirstAdd(t *testing.T) {
	cfg := Config{Length: 100, Epsilon: 0.1, Delta: 0.1}
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW, AlgoExact} {
		for _, c := range subjects(t, algo, cfg) {
			c.Advance(500)
			if got := c.EstimateWindow(); got != 0 {
				t.Errorf("%v: estimate after bare Advance = %v", c.name, got)
			}
			c.Add(600)
			if got := c.EstimateWindow(); got != 1 {
				t.Errorf("%v: estimate = %v, want 1", c.name, got)
			}
		}
	}
}

func TestCountersAddNZero(t *testing.T) {
	cfg := Config{Length: 100, Epsilon: 0.1, Delta: 0.1}
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW, AlgoExact} {
		for _, c := range subjects(t, algo, cfg) {
			c.Add(10)
			c.AddN(200, 0) // advances the clock, expires the first arrival
			if got := c.EstimateWindow(); got != 0 {
				t.Errorf("%v: estimate = %v after AddN(..,0) expiry", c.name, got)
			}
			if c.Now() != 200 {
				t.Errorf("%v: Now = %d, want 200", c.name, c.Now())
			}
		}
	}
}

func TestCountersTickZeroArrival(t *testing.T) {
	// Tick 0 is a legal arrival time; the window boundary arithmetic must
	// not underflow.
	cfg := Config{Length: 10, Epsilon: 0.1, Delta: 0.1}
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW, AlgoExact} {
		for _, c := range subjects(t, algo, cfg) {
			c.Add(0)
			if got := c.EstimateWindow(); got != 1 {
				t.Errorf("%v: estimate = %v, want 1", c.name, got)
			}
			c.Advance(11)
			if got := c.EstimateWindow(); got != 0 {
				t.Errorf("%v: tick-0 arrival did not expire: %v", c.name, got)
			}
		}
	}
}

func TestCountersLargeTickJumps(t *testing.T) {
	// Sparse streams with giant gaps: everything between bursts expires.
	cfg := Config{Length: 1000, Epsilon: 0.1, Delta: 0.1, UpperBound: 10000}
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW} {
		for _, c := range subjects(t, algo, cfg) {
			for burst := 0; burst < 5; burst++ {
				base := Tick(burst) * 1_000_000
				for i := Tick(0); i < 100; i++ {
					c.Add(base + i)
				}
			}
			got := c.EstimateWindow()
			if got < 80 || got > 130 {
				t.Errorf("%v: estimate = %v, want ≈100 (only the last burst lives)", c.name, got)
			}
		}
	}
}

func TestEHWorstCaseAdversarialBoundary(t *testing.T) {
	// Query boundaries placed exactly at every bucket edge: the half-bucket
	// correction must stay within ε at each.
	const eps = 0.1
	cfg := Config{Length: 100000, Epsilon: eps}
	for _, s := range subjects(t, AlgoEH, cfg) {
		h := s.Counter.(ehCounter)
		x := mustExact(t, cfg)
		rng := rand.New(rand.NewSource(15))
		var now Tick
		for i := 0; i < 30000; i++ {
			now += Tick(rng.Intn(3))
			h.Add(now)
			x.Add(now)
		}
		for _, b := range h.Buckets() {
			for _, edge := range []Tick{b.Start, b.End, b.Start - 1, b.End + 1} {
				got := h.EstimateSince(edge)
				want := float64(x.CountSince(edge))
				if abs64(got-want) > eps*want+0.5 {
					t.Fatalf("%s: boundary %d: estimate %v, exact %v", s.name, edge, got, want)
				}
			}
		}
	}
}

func TestEHMassiveAddN(t *testing.T) {
	for _, s := range subjects(t, AlgoEH, Config{Length: 1 << 30, Epsilon: 0.1}) {
		h := s.Counter.(ehCounter)
		h.AddN(100, 1_000_000)
		if got := h.EstimateWindow(); got != 1_000_000 {
			t.Errorf("%s: EstimateWindow = %v, want exactly 1e6 (single-tick mass)", s.name, got)
		}
		if nb := h.NumBuckets(); nb > 200 {
			t.Errorf("%s: 1e6 arrivals in %d buckets, want O(log n/ε)", s.name, nb)
		}
	}
}

func TestDWUpperBoundViolationDegradesGracefully(t *testing.T) {
	// Feeding more arrivals per window than u(N,S) promised must not panic
	// or return nonsense (error may exceed ε — the contract was broken).
	cfg := Config{Length: 10000, Epsilon: 0.1, UpperBound: 100}
	for _, w := range subjects(t, AlgoDW, cfg) {
		for i := Tick(1); i <= 5000; i++ {
			w.Add(i)
		}
		got := w.EstimateWindow()
		if got <= 0 || got > 10000 {
			t.Errorf("%s: estimate %v implausible under bound violation", w.name, got)
		}
	}
}

func TestRWSaltsDifferAcrossInstances(t *testing.T) {
	cfg := Config{Length: 100, Epsilon: 0.2, Delta: 0.2, Seed: 1}
	a := mustRW(t, cfg)
	b := mustRW(t, cfg)
	if a.salt == b.salt {
		t.Error("two RW instances share an identifier salt")
	}
	bank, err := NewRWBank(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s0, s1 := bank.CellIDSalt(0), bank.CellIDSalt(1); s0 == s1 || s0 == a.salt || s0 == b.salt {
		t.Error("RW bank cells share an identifier salt with each other or with an RW instance")
	}
}
