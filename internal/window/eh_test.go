package window

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEH(t *testing.T, cfg Config) *EH {
	t.Helper()
	h, err := NewEH(cfg)
	if err != nil {
		t.Fatalf("NewEH: %v", err)
	}
	return h
}

func mustExact(t *testing.T, cfg Config) *Exact {
	t.Helper()
	x, err := NewExact(cfg)
	if err != nil {
		t.Fatalf("NewExact: %v", err)
	}
	return x
}

func TestEHConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero length", Config{Epsilon: 0.1}},
		{"zero epsilon", Config{Length: 100}},
		{"epsilon one", Config{Length: 100, Epsilon: 1}},
		{"negative epsilon", Config{Length: 100, Epsilon: -0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewEH(tc.cfg); err == nil {
				t.Fatalf("NewEH(%+v) succeeded, want error", tc.cfg)
			}
		})
	}
}

func TestEHEmpty(t *testing.T) {
	h := mustEH(t, Config{Length: 100, Epsilon: 0.1})
	if got := h.EstimateWindow(); got != 0 {
		t.Errorf("empty EstimateWindow = %v, want 0", got)
	}
	if got := h.EstimateSince(50); got != 0 {
		t.Errorf("empty EstimateSince = %v, want 0", got)
	}
	if h.NumBuckets() != 0 {
		t.Errorf("empty NumBuckets = %d, want 0", h.NumBuckets())
	}
}

func TestEHSingleArrival(t *testing.T) {
	h := mustEH(t, Config{Length: 100, Epsilon: 0.1})
	h.Add(10)
	if got := h.EstimateWindow(); got != 1 {
		t.Errorf("EstimateWindow = %v, want 1", got)
	}
	if got := h.EstimateSince(10); got != 0 {
		t.Errorf("EstimateSince(10) = %v, want 0 (range is exclusive of since)", got)
	}
	if got := h.EstimateSince(9); got != 1 {
		t.Errorf("EstimateSince(9) = %v, want 1", got)
	}
}

func TestEHExpiry(t *testing.T) {
	h := mustEH(t, Config{Length: 10, Epsilon: 0.1})
	h.Add(1)
	h.Add(2)
	h.Advance(12)
	// Window covers (2, 12]: the arrival at 1 is expired, the arrival at 2
	// is exactly at the boundary and also out.
	if got := h.EstimateWindow(); got != 0 {
		t.Errorf("EstimateWindow after expiry = %v, want 0", got)
	}
	h.Add(13)
	if got := h.EstimateWindow(); got != 1 {
		t.Errorf("EstimateWindow = %v, want 1", got)
	}
}

func TestEHExactWhenSmall(t *testing.T) {
	// With fewer arrivals than one size class can hold, every estimate is
	// exact regardless of the boundary.
	h := mustEH(t, Config{Length: 1000, Epsilon: 0.2})
	for i := Tick(1); i <= 5; i++ {
		h.Add(i * 10)
	}
	for since := Tick(0); since <= 60; since += 5 {
		want := 0.0
		for i := Tick(1); i <= 5; i++ {
			if i*10 > since {
				want++
			}
		}
		if got := h.EstimateSince(since); got != want {
			t.Errorf("EstimateSince(%d) = %v, want %v", since, got, want)
		}
	}
}

func TestEHRelativeErrorBound(t *testing.T) {
	for _, eps := range []float64{0.05, 0.1, 0.25} {
		cfg := Config{Length: 5000, Epsilon: eps}
		for _, h := range subjects(t, AlgoEH, cfg) {
			rng := rand.New(rand.NewSource(42))
			x := mustExact(t, cfg)
			var now Tick
			for i := 0; i < 20000; i++ {
				now += Tick(rng.Intn(3))
				h.Add(now)
				x.Add(now)
				if i%97 == 0 {
					checkSuffixQueries(t, h.name, h, x, eps, now, rng)
				}
			}
		}
	}
}

// checkSuffixQueries compares the synopsis estimate against the exact count
// for a set of random suffix ranges and the full window.
func checkSuffixQueries(t *testing.T, name string, c Counter, x *Exact, eps float64, now Tick, rng *rand.Rand) {
	t.Helper()
	n := x.cfg.Length
	ranges := []Tick{n, n / 2, n / 4, 1 + Tick(rng.Intn(int(n)))}
	for _, r := range ranges {
		got := c.EstimateRange(r)
		want := float64(x.CountRange(r))
		if want == 0 {
			continue
		}
		if diff := abs64(got - want); diff > eps*want+0.5 {
			t.Fatalf("%s ε=%v: EstimateRange(%d)=%v, exact=%v, |err|=%v > ε·n=%v (now=%d)",
				name, eps, r, got, want, diff, eps*want, now)
		}
	}
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestEHInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := mustEH(t, Config{Length: 2000, Epsilon: 0.1})
	var now Tick
	for i := 0; i < 5000; i++ {
		now += Tick(rng.Intn(2))
		h.AddN(now, uint64(1+rng.Intn(3)))
		if i%211 == 0 {
			if err := h.checkInvariant(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEHAddNMatchesRepeatedAdd(t *testing.T) {
	cfg := Config{Length: 500, Epsilon: 0.1}
	a := mustEH(t, cfg)
	b := mustEH(t, cfg)
	for i := Tick(1); i <= 100; i++ {
		a.AddN(i, 3)
		for j := 0; j < 3; j++ {
			b.Add(i)
		}
	}
	if ea, eb := a.EstimateWindow(), b.EstimateWindow(); ea != eb {
		t.Errorf("AddN total %v != repeated Add total %v", ea, eb)
	}
}

func TestEHOutOfOrderClamped(t *testing.T) {
	h := mustEH(t, Config{Length: 100, Epsilon: 0.1})
	h.Add(50)
	h.Add(40) // clamped to 50
	if got := h.Now(); got != 50 {
		t.Errorf("Now = %d, want 50", got)
	}
	if got := h.EstimateSince(45); got != 2 {
		t.Errorf("EstimateSince(45) = %v, want 2 (out-of-order arrival clamped forward)", got)
	}
}

func TestEHReset(t *testing.T) {
	h := mustEH(t, Config{Length: 100, Epsilon: 0.1})
	for i := Tick(1); i < 50; i++ {
		h.Add(i)
	}
	h.Reset()
	if h.EstimateWindow() != 0 || h.NumBuckets() != 0 || h.Now() != 0 {
		t.Errorf("Reset left state: window=%v buckets=%d now=%d", h.EstimateWindow(), h.NumBuckets(), h.Now())
	}
	h.Add(5)
	if got := h.EstimateWindow(); got != 1 {
		t.Errorf("EstimateWindow after reset+add = %v, want 1", got)
	}
}

func TestEHMemoryGrowsSublinearly(t *testing.T) {
	h := mustEH(t, Config{Length: 1 << 20, Epsilon: 0.1})
	for i := Tick(1); i <= 1<<16; i++ {
		h.Add(i)
	}
	// 2^16 arrivals summarized in O(log(n)/ε) buckets.
	if nb := h.NumBuckets(); nb > 200 {
		t.Errorf("NumBuckets = %d for 65536 arrivals, want O(log n / eps) ≈ ≤200", nb)
	}
	if mb := h.MemoryBytes(); mb > 1<<14 {
		t.Errorf("MemoryBytes = %d, want well under 16KiB", mb)
	}
}

func TestEHBucketsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := mustEH(t, Config{Length: 10000, Epsilon: 0.1})
	var now Tick
	for i := 0; i < 3000; i++ {
		now += Tick(rng.Intn(3))
		h.Add(now)
	}
	bs := h.Buckets()
	for i := 1; i < len(bs); i++ {
		if bs[i-1].End > bs[i].Start {
			t.Fatalf("buckets overlap: [%d,%d] then [%d,%d]", bs[i-1].Start, bs[i-1].End, bs[i].Start, bs[i].End)
		}
		if bs[i-1].Size < bs[i].Size {
			t.Fatalf("bucket sizes increase with recency: %d then %d", bs[i-1].Size, bs[i].Size)
		}
	}
	var total uint64
	for _, b := range bs {
		total += b.Size
	}
	if total != h.Total() {
		t.Errorf("bucket sizes sum to %d, Total() = %d", total, h.Total())
	}
}

// TestEHQuickSuffixAccuracy is a property test: for arbitrary arrival
// patterns, every suffix estimate is within ε of the exact count.
func TestEHQuickSuffixAccuracy(t *testing.T) {
	const eps = 0.15
	prop := func(gaps []uint8, queryAt uint16) bool {
		cfg := Config{Length: 300, Epsilon: eps}
		for _, h := range subjects(t, AlgoEH, cfg) {
			x, _ := NewExact(cfg)
			var now Tick
			for _, g := range gaps {
				now += Tick(g % 5)
				h.Add(now)
				x.Add(now)
			}
			since := Tick(queryAt)
			got := h.EstimateSince(since)
			want := float64(x.CountSince(since))
			if !(abs64(got-want) <= eps*want+0.5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEHCountBasedModel(t *testing.T) {
	// Count-based windows: ticks are arrival sequence numbers. Window of the
	// last 100 arrivals; each counter-relevant arrival carries the global
	// arrival index.
	cfg := Config{Model: CountBased, Length: 100, Epsilon: 0.1}
	for _, h := range subjects(t, AlgoEH, cfg) {
		x := mustExact(t, cfg)
		for seq := Tick(1); seq <= 1000; seq++ {
			if seq%3 == 0 { // only every third global arrival hits this counter
				h.Add(seq)
				x.Add(seq)
			} else {
				h.Advance(seq)
				x.Advance(seq)
			}
		}
		got := h.EstimateRange(cfg.Length)
		want := float64(x.CountRange(100))
		if abs64(got-want) > 0.1*want+0.5 {
			t.Errorf("%s: count-based EstimateWindow = %v, exact = %v", h.name, got, want)
		}
	}
}
