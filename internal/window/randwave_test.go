package window

import (
	"math/rand"
	"testing"
)

func mustRW(t *testing.T, cfg Config) *RW {
	t.Helper()
	w, err := NewRW(cfg)
	if err != nil {
		t.Fatalf("NewRW: %v", err)
	}
	return w
}

func TestRWConfigValidation(t *testing.T) {
	if _, err := NewRW(Config{Length: 100, Epsilon: 0.1}); err == nil {
		t.Fatal("NewRW without Delta succeeded, want error")
	}
	if _, err := NewRW(Config{Length: 100, Epsilon: 0.1, Delta: 1.5}); err == nil {
		t.Fatal("NewRW with Delta > 1 succeeded, want error")
	}
}

func TestRWEmpty(t *testing.T) {
	w := mustRW(t, Config{Length: 100, Epsilon: 0.2, Delta: 0.1})
	if got := w.EstimateWindow(); got != 0 {
		t.Errorf("empty EstimateWindow = %v, want 0", got)
	}
}

func TestRWExactWhenSmall(t *testing.T) {
	// With fewer arrivals than level 0 holds, estimates are exact.
	w := mustRW(t, Config{Length: 1000, Epsilon: 0.2, Delta: 0.1})
	for i := Tick(1); i <= 10; i++ {
		w.Add(i * 7)
	}
	for since := Tick(0); since <= 80; since += 7 {
		want := 0.0
		for i := Tick(1); i <= 10; i++ {
			if i*7 > since {
				want++
			}
		}
		if got := w.EstimateSince(since); got != want {
			t.Errorf("EstimateSince(%d) = %v, want %v", since, got, want)
		}
	}
}

func TestRWAccuracy(t *testing.T) {
	// Probabilistic bound: check that the overwhelming majority of queries
	// land within ε, and that none are wildly off.
	const eps = 0.2
	cfg := Config{Length: 3000, Epsilon: eps, Delta: 0.05, UpperBound: 10000, Seed: 77}
	for _, w := range subjects(t, AlgoRW, cfg) {
		rng := rand.New(rand.NewSource(9))
		x := mustExact(t, cfg)
		var now Tick
		bad := 0
		checks := 0
		for i := 0; i < 10000; i++ {
			now += Tick(rng.Intn(2))
			w.Add(now)
			x.Add(now)
			if i%101 == 0 && i > 500 {
				for _, r := range []Tick{3000, 1500, 700} {
					got := w.EstimateRange(r)
					want := float64(x.CountRange(r))
					if want < 50 {
						continue
					}
					checks++
					if abs64(got-want) > eps*want+1 {
						bad++
					}
					if abs64(got-want) > 4*eps*want+2 {
						t.Fatalf("%s estimate wildly off: got %v, exact %v (r=%d)", w.name, got, want, r)
					}
				}
			}
		}
		if checks == 0 {
			t.Fatal("no checks performed")
		}
		if frac := float64(bad) / float64(checks); frac > 0.1 {
			t.Errorf("%s exceeded ε on %.1f%% of %d checks, want ≤10%%", w.name, 100*frac, checks)
		}
	}
}

func TestRWDuplicateInsensitive(t *testing.T) {
	cfg := Config{Length: 1000, Epsilon: 0.2, Delta: 0.1, Seed: 3}
	for _, s := range subjects(t, AlgoRW, cfg) {
		w := s.Counter.(interface {
			Counter
			AddID(t Tick, id uint64)
		})
		for i := Tick(1); i <= 50; i++ {
			w.AddID(i, uint64(i)) // level assignment depends only on the id
		}
		before := w.EstimateWindow()
		// Re-adding the same identifiers must not change per-level membership
		// beyond replacing entries with equal ones.
		for i := Tick(1); i <= 50; i++ {
			w.AddID(i, uint64(i))
		}
		after := w.EstimateWindow()
		// The count field doubles but the estimate derives from stored entries;
		// duplicate ids map to identical levels so small windows stay exact-ish.
		if after > 2*before+10 {
			t.Errorf("%s: duplicate inserts inflated estimate from %v to %v", s.name, before, after)
		}
	}
}

func TestRWMergeLossless(t *testing.T) {
	// The defining property (§5.2): merging per-site waves gives the same
	// estimates as one wave that saw the union stream.
	const eps = 0.2
	cfg := Config{Length: 2000, Epsilon: eps, Delta: 0.1, UpperBound: 4000, Seed: 123}
	w1 := mustRW(t, cfg)
	w2 := mustRW(t, cfg)
	union := mustRW(t, cfg)
	x := mustExact(t, cfg)
	rng := rand.New(rand.NewSource(21))
	var now Tick
	var id uint64
	for i := 0; i < 6000; i++ {
		now += Tick(rng.Intn(2))
		id++
		eid := uint64(1e12) + id
		if rng.Intn(2) == 0 {
			w1.AddID(now, eid)
		} else {
			w2.AddID(now, eid)
		}
		union.AddID(now, eid)
		x.Add(now)
	}
	w1.Advance(now)
	w2.Advance(now)
	merged, err := MergeRW(cfg, w1, w2)
	if err != nil {
		t.Fatalf("MergeRW: %v", err)
	}
	for _, r := range []Tick{2000, 1000, 300} {
		mg := merged.EstimateRange(r)
		ug := union.EstimateRange(r)
		want := float64(x.CountRange(r))
		if want == 0 {
			continue
		}
		// Lossless: merged estimate equals the union-built wave's estimate.
		if abs64(mg-ug) > 1e-9 {
			t.Errorf("merged estimate %v != union estimate %v (r=%d)", mg, ug, r)
		}
		if abs64(mg-want) > 2*eps*want+2 {
			t.Errorf("merged estimate %v vs exact %v exceeds bound (r=%d)", mg, want, r)
		}
	}
}

func TestRWMergeRejectsIncompatible(t *testing.T) {
	a := mustRW(t, Config{Length: 100, Epsilon: 0.2, Delta: 0.1, Seed: 1})
	b := mustRW(t, Config{Length: 100, Epsilon: 0.2, Delta: 0.1, Seed: 2})
	if _, err := MergeRW(a.Config(), a, b); err == nil {
		t.Fatal("MergeRW accepted waves with different seeds")
	}
}

func TestRWMergeGrowsLevels(t *testing.T) {
	// When the combined stream exceeds one site's upper bound, the merged
	// wave gets more levels, populated by re-deriving event levels.
	small := Config{Length: 1000, Epsilon: 0.25, Delta: 0.2, UpperBound: 200, Seed: 5}
	w1 := mustRW(t, small)
	w2 := mustRW(t, small)
	for i := Tick(1); i <= 200; i++ {
		w1.AddID(i, uint64(i))
		w2.AddID(i, uint64(100000+i))
	}
	out := small
	out.UpperBound = 0 // force recomputation from the sum
	merged, err := MergeRW(out, w1, w2)
	if err != nil {
		t.Fatalf("MergeRW: %v", err)
	}
	if merged.Levels() < w1.Levels() {
		t.Errorf("merged wave has %d levels, inputs had %d", merged.Levels(), w1.Levels())
	}
	got := merged.EstimateWindow()
	if abs64(got-400) > 0.5*400 {
		t.Errorf("merged EstimateWindow = %v, want ≈400", got)
	}
}

func TestRWReset(t *testing.T) {
	w := mustRW(t, Config{Length: 100, Epsilon: 0.2, Delta: 0.1})
	for i := Tick(1); i <= 60; i++ {
		w.Add(i)
	}
	w.Reset()
	if w.EstimateWindow() != 0 {
		t.Errorf("EstimateWindow after Reset = %v, want 0", w.EstimateWindow())
	}
}

func TestRWMemoryQuadraticInEps(t *testing.T) {
	mem := func(eps float64) int {
		w := mustRW(t, Config{Length: 1 << 20, Epsilon: eps, Delta: 0.1, UpperBound: 1 << 20})
		for i := Tick(1); i <= 1<<15; i++ {
			w.AddID(i, uint64(i)) // fill so lazily allocated levels materialize
		}
		return w.MemoryBytes()
	}
	m10, m20 := mem(0.1), mem(0.2)
	// Halving ε should roughly quadruple memory (per-level capacity 1/ε²).
	if ratio := float64(m10) / float64(m20); ratio < 2.5 {
		t.Errorf("memory ratio eps 0.1 vs 0.2 = %.2f, want ≳ 2.5 (quadratic scaling)", ratio)
	}
}

func TestRWRepetitionsOdd(t *testing.T) {
	for _, d := range []float64{0.5, 0.1, 0.01} {
		if r := rwRepetitions(d); r%2 == 0 || r < 1 {
			t.Errorf("rwRepetitions(%v) = %d, want odd positive", d, r)
		}
	}
}
