package window

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestExactBasics(t *testing.T) {
	x := mustExact(t, Config{Length: 10})
	x.Add(1)
	x.Add(5)
	x.AddN(5, 2)
	if got := x.CountSince(0); got != 4 {
		t.Errorf("CountSince(0) = %d, want 4", got)
	}
	if got := x.CountSince(4); got != 3 {
		t.Errorf("CountSince(4) = %d, want 3", got)
	}
	x.Advance(12)
	// Window (2,12]: arrival at 1 expired.
	if got := x.CountSince(0); got != 3 {
		t.Errorf("CountSince(0) after advance = %d, want 3", got)
	}
	x.Advance(100)
	if got := x.CountSince(0); got != 0 {
		t.Errorf("CountSince(0) after full expiry = %d, want 0", got)
	}
}

func TestExactCompaction(t *testing.T) {
	// Long stream through a short window: the entry slice must not grow
	// without bound thanks to compaction.
	x := mustExact(t, Config{Length: 100})
	for i := Tick(1); i <= 100000; i++ {
		x.Add(i)
	}
	if got := x.CountSince(0); got != 100 {
		t.Errorf("CountSince(0) = %d, want 100", got)
	}
	if mb := x.MemoryBytes(); mb > 1<<20 {
		t.Errorf("exact counter memory %d bytes after compaction, want < 1MiB", mb)
	}
}

// TestExactAgainstBruteForce cross-checks the prefix-sum ring against a
// naive recount for arbitrary streams — the ground truth must itself be
// trustworthy.
func TestExactAgainstBruteForce(t *testing.T) {
	prop := func(gaps []uint8, counts []uint8, since uint16) bool {
		const n = 200
		x, _ := NewExact(Config{Length: n})
		type arr struct {
			t Tick
			n uint64
		}
		var log []arr
		var now Tick
		for i, g := range gaps {
			now += Tick(g % 7)
			cnt := uint64(1)
			if i < len(counts) {
				cnt = uint64(counts[i]%4) + 1
			}
			x.AddN(now, cnt)
			log = append(log, arr{t: now, n: cnt})
		}
		s := Tick(since)
		if now >= n && s < now-n {
			s = now - n
		}
		var want uint64
		for _, a := range log {
			if a.t > s && (now < n || a.t > now-n) {
				want += a.n
			}
		}
		return x.CountSince(Tick(since)) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestExactCoalescesSameTick(t *testing.T) {
	x := mustExact(t, Config{Length: 100})
	for i := 0; i < 1000; i++ {
		x.Add(42)
	}
	if got := x.CountSince(0); got != 1000 {
		t.Errorf("CountSince = %d, want 1000", got)
	}
	if len(x.entries) != 1 {
		t.Errorf("entries = %d, want 1 (coalesced)", len(x.entries))
	}
}

func TestNewDispatch(t *testing.T) {
	cfg := Config{Length: 100, Epsilon: 0.1, Delta: 0.1}
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW, AlgoExact} {
		c, err := New(algo, cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", algo, err)
		}
		c.Add(1)
		if got := c.EstimateWindow(); got != 1 {
			t.Errorf("%v: EstimateWindow = %v, want 1", algo, got)
		}
	}
	if _, err := New(Algorithm(99), cfg); err == nil {
		t.Error("New with bogus algorithm succeeded")
	}
}

func TestModelAndAlgorithmStrings(t *testing.T) {
	if TimeBased.String() != "time-based" || CountBased.String() != "count-based" {
		t.Error("Model.String mismatch")
	}
	for algo, want := range map[Algorithm]string{AlgoEH: "EH", AlgoDW: "DW", AlgoRW: "RW", AlgoExact: "Exact"} {
		if algo.String() != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", algo, algo.String(), want)
		}
	}
}

func TestCountersUnderUniformStream(t *testing.T) {
	// All four algorithms, in every implementation, agree (within ε) on a
	// deterministic dense stream.
	cfg := Config{Length: 1000, Epsilon: 0.1, Delta: 0.1, UpperBound: 1000}
	counters := map[string]Counter{}
	for _, algo := range []Algorithm{AlgoEH, AlgoDW, AlgoRW, AlgoExact} {
		for _, s := range subjects(t, algo, cfg) {
			counters[s.name] = s
		}
	}
	for i := Tick(1); i <= 5000; i++ {
		for _, c := range counters {
			c.Add(i)
		}
	}
	want := 1000.0
	for name, c := range counters {
		got := c.EstimateWindow()
		tol := 0.1*want + 1
		if strings.HasPrefix(name, "RW") {
			tol = 0.3*want + 1 // randomized: generous tolerance for a single draw
		}
		if abs64(got-want) > tol {
			t.Errorf("%s EstimateWindow = %v, want %v ± %v", name, got, want, tol)
		}
	}
}

func BenchmarkEHAdd(b *testing.B) {
	h, _ := NewEH(Config{Length: 1 << 20, Epsilon: 0.1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(Tick(i))
	}
}

func BenchmarkDWAdd(b *testing.B) {
	w, _ := NewDW(Config{Length: 1 << 20, Epsilon: 0.1, UpperBound: 1 << 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(Tick(i))
	}
}

func BenchmarkRWAdd(b *testing.B) {
	w, _ := NewRW(Config{Length: 1 << 20, Epsilon: 0.1, Delta: 0.1, UpperBound: 1 << 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(Tick(i))
	}
}

func BenchmarkEHQuery(b *testing.B) {
	h, _ := NewEH(Config{Length: 1 << 20, Epsilon: 0.1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		h.Add(Tick(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.EstimateRange(Tick(rng.Intn(1 << 18)))
	}
}
