package window

import (
	"math"
	"math/rand"
	"testing"
)

// buildSiteStreams splits one logical stream across n sites and returns the
// per-site histograms plus an exact counter over the union.
func buildSiteStreams(t *testing.T, cfg Config, n, events int, seed int64) ([]*EH, *Exact, Tick) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hs := make([]*EH, n)
	for i := range hs {
		hs[i] = mustEH(t, cfg)
	}
	x := mustExact(t, cfg)
	var now Tick
	for i := 0; i < events; i++ {
		now += Tick(rng.Intn(2))
		hs[rng.Intn(n)].Add(now)
		x.Add(now)
	}
	for _, h := range hs {
		h.Advance(now)
	}
	return hs, x, now
}

func TestMergeEHTheorem4Bound(t *testing.T) {
	const eps = 0.1
	cfg := Config{Length: 3000, Epsilon: eps}
	hs, x, _ := buildSiteStreams(t, cfg, 4, 12000, 17)
	merged, err := MergeEH(cfg, hs...)
	if err != nil {
		t.Fatalf("MergeEH: %v", err)
	}
	bound := MergedRelativeError(eps, eps) // ε + ε' + εε'
	for _, r := range []Tick{3000, 1500, 700, 200} {
		got := merged.EstimateRange(r)
		want := float64(x.CountRange(r))
		if want < 10 {
			continue
		}
		if abs64(got-want) > bound*want+1 {
			t.Errorf("merged EstimateRange(%d) = %v, exact = %v, bound = %v",
				r, got, want, bound*want)
		}
	}
	if err := merged.checkInvariant(); err != nil {
		t.Errorf("merged histogram violates EH invariant: %v", err)
	}
}

func TestMergeEHSingleInputRoundTrip(t *testing.T) {
	// Merging a single histogram re-summarizes it; estimates stay within the
	// composed bound of the original stream.
	const eps = 0.1
	cfg := Config{Length: 2000, Epsilon: eps}
	hs, x, _ := buildSiteStreams(t, cfg, 1, 6000, 23)
	merged, err := MergeEH(cfg, hs[0])
	if err != nil {
		t.Fatalf("MergeEH: %v", err)
	}
	bound := MergedRelativeError(eps, eps)
	for _, r := range []Tick{2000, 900} {
		got := merged.EstimateRange(r)
		want := float64(x.CountRange(r))
		if abs64(got-want) > bound*want+1 {
			t.Errorf("EstimateRange(%d) = %v, exact %v", r, got, want)
		}
	}
}

func TestMergeEHRejectsCountBased(t *testing.T) {
	cb := Config{Model: CountBased, Length: 100, Epsilon: 0.1}
	h := mustEH(t, cb)
	if _, err := MergeEH(cb, h); err == nil {
		t.Fatal("MergeEH accepted count-based histograms (Figure 2 shows this is impossible)")
	}
	tb := Config{Model: TimeBased, Length: 100, Epsilon: 0.1}
	if _, err := MergeEH(tb, h); err == nil {
		t.Fatal("MergeEH accepted a count-based input into a time-based output")
	}
}

func TestMergeEHEmptyInputs(t *testing.T) {
	cfg := Config{Length: 100, Epsilon: 0.1}
	if _, err := MergeEH(cfg); err == nil {
		t.Fatal("MergeEH with no inputs succeeded")
	}
	h := mustEH(t, cfg)
	merged, err := MergeEH(cfg, h, mustEH(t, cfg))
	if err != nil {
		t.Fatalf("MergeEH of empty histograms: %v", err)
	}
	if got := merged.EstimateWindow(); got != 0 {
		t.Errorf("merged empty EstimateWindow = %v, want 0", got)
	}
}

func TestMergeEHPreservesTotalMass(t *testing.T) {
	// The replay inserts exactly the summarized arrivals, so the merged
	// total matches the sum of input totals (no window expiry in between).
	cfg := Config{Length: 1 << 40, Epsilon: 0.1}
	hs, _, _ := buildSiteStreams(t, cfg, 3, 5000, 31)
	var sum uint64
	for _, h := range hs {
		sum += h.Total()
	}
	merged, err := MergeEH(cfg, hs...)
	if err != nil {
		t.Fatalf("MergeEH: %v", err)
	}
	if merged.Total() != sum {
		t.Errorf("merged Total = %d, want %d", merged.Total(), sum)
	}
}

func TestMultiLevelAggregation(t *testing.T) {
	// Hierarchical aggregation over h levels: error grows at most like
	// h·ε(1+ε)+ε (Section 5.1). Build a 3-level binary tree over 8 sites.
	const eps = 0.05
	cfg := Config{Length: 4000, Epsilon: eps}
	hs, x, _ := buildSiteStreams(t, cfg, 8, 24000, 41)
	level := hs
	h := 0
	for len(level) > 1 {
		var next []*EH
		for i := 0; i < len(level); i += 2 {
			m, err := MergeEH(cfg, level[i], level[i+1])
			if err != nil {
				t.Fatalf("MergeEH at level %d: %v", h, err)
			}
			next = append(next, m)
		}
		level = next
		h++
	}
	root := level[0]
	bound := MultiLevelRelativeError(eps, h)
	for _, r := range []Tick{4000, 2000, 1000} {
		got := root.EstimateRange(r)
		want := float64(x.CountRange(r))
		if want < 10 {
			continue
		}
		if abs64(got-want) > bound*want+1 {
			t.Errorf("h=%d EstimateRange(%d) = %v, exact %v, bound %v", h, r, got, want, bound*want)
		}
	}
}

func TestPlanLevelEpsilon(t *testing.T) {
	// Inverse relationship: initializing levels with the planned ε must give
	// a multi-level bound equal to the target.
	for _, target := range []float64{0.05, 0.1, 0.3} {
		for _, h := range []int{1, 2, 5, 8} {
			lvl := PlanLevelEpsilon(target, h)
			if lvl <= 0 || lvl >= target {
				t.Errorf("PlanLevelEpsilon(%v,%d) = %v, want in (0, target)", target, h, lvl)
				continue
			}
			back := MultiLevelRelativeError(lvl, h)
			if math.Abs(back-target) > 1e-9 {
				t.Errorf("MultiLevelRelativeError(PlanLevelEpsilon(%v,%d)) = %v, want %v", target, h, back, target)
			}
		}
	}
	if got := PlanLevelEpsilon(0.1, 0); got != 0.1 {
		t.Errorf("PlanLevelEpsilon(0.1, 0) = %v, want 0.1", got)
	}
}

func TestMergeEHEndpointOnlyIsWorse(t *testing.T) {
	// Ablation: the endpoint-only replay loses Theorem 4's guarantee. On a
	// stream where buckets straddle the query boundary, half/half replay
	// must not be (meaningfully) worse than endpoint-only replay on average.
	const eps = 0.1
	cfg := Config{Length: 3000, Epsilon: eps}
	var errHalf, errEnd float64
	for seed := int64(0); seed < 5; seed++ {
		hs, x, _ := buildSiteStreams(t, cfg, 4, 12000, 100+seed)
		mh, err := MergeEH(cfg, hs...)
		if err != nil {
			t.Fatalf("MergeEH: %v", err)
		}
		me, err := MergeEHEndpointOnly(cfg, hs...)
		if err != nil {
			t.Fatalf("MergeEHEndpointOnly: %v", err)
		}
		for _, r := range []Tick{2500, 1200, 600, 300} {
			want := float64(x.CountRange(r))
			if want == 0 {
				continue
			}
			errHalf += abs64(mh.EstimateRange(r)-want) / want
			errEnd += abs64(me.EstimateRange(r)-want) / want
		}
	}
	if errHalf > errEnd*1.5+0.05 {
		t.Errorf("half/half replay error %.4f ≫ endpoint-only %.4f; Theorem 4 split should not lose",
			errHalf, errEnd)
	}
	t.Logf("cumulative relative error: half/half=%.4f endpoint-only=%.4f", errHalf, errEnd)
}

// The two ablations below time oracle code, so they live beside it.

// BenchmarkAblationMergeReplay compares Theorem 4's half/half bucket replay
// against the endpoint-only ablation during aggregation.
func BenchmarkAblationMergeReplay(b *testing.B) {
	cfg := Config{Length: 50000, Epsilon: 0.1}
	build := func() []*EH {
		hs := make([]*EH, 4)
		for i := range hs {
			h, err := NewEH(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for t := Tick(1); t <= 40000; t += Tick(1 + i%3) {
				h.Add(t)
			}
			hs[i] = h
		}
		return hs
	}
	hs := build()
	b.Run("half-half", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MergeEH(cfg, hs...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("endpoint-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MergeEHEndpointOnly(cfg, hs...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBucketLayout compares the per-level deque layout of the
// per-object exponential histogram (the paper's §7.1 choice) against the
// per-object deterministic wave, whose flat fixed arrays are the natural
// alternative layout, on identical streams.
func BenchmarkAblationBucketLayout(b *testing.B) {
	cfg := Config{Length: 1 << 20, Epsilon: 0.1, UpperBound: 1 << 20, Delta: 0.1}
	for _, algo := range []Algorithm{AlgoEH, AlgoDW} {
		b.Run(algo.String(), func(b *testing.B) {
			c, err := New(algo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(Tick(i + 1))
			}
		})
	}
}
