package core

import (
	"math"
	"math/rand"
	"testing"

	"ecmsketch/internal/window"
)

// buildDistributed splits one Zipf stream across n site sketches and an
// exact oracle over the union.
func buildDistributed(t *testing.T, p Params, n, events int, seed int64) ([]*Sketch, *exactOracle, Tick) {
	t.Helper()
	sites := make([]*Sketch, n)
	for i := range sites {
		sites[i] = mustECM(t, p)
	}
	oracle := newExactOracle(p.WindowLength)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, 1000)
	var now Tick
	for i := 0; i < events; i++ {
		now += Tick(rng.Intn(2))
		k := zipf.Uint64()
		sites[rng.Intn(n)].Add(k, now)
		oracle.add(k, now)
	}
	for _, s := range sites {
		s.Advance(now)
	}
	return sites, oracle, now
}

func TestMergeEHSketches(t *testing.T) {
	const eps, N = 0.1, 2000
	p := Params{Epsilon: eps, Delta: 0.1, WindowLength: N, Seed: 55}
	sites, oracle, _ := buildDistributed(t, p, 4, 24000, 91)
	merged, err := Merge(sites...)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	bound := MergedPointErrorBound(merged.EffectiveSplit())
	l1 := float64(oracle.totalIn(N))
	for k := uint64(0); k < 60; k++ {
		got := merged.Estimate(k, N)
		want := float64(oracle.freq(k, N))
		if math.Abs(got-want) > bound*l1+1 {
			t.Errorf("merged Estimate(%d)=%v true=%v bound=%v", k, got, want, bound*l1)
		}
	}
	var sum uint64
	for _, s := range sites {
		sum += s.Count()
	}
	if merged.Count() != sum {
		t.Errorf("merged Count=%d, want %d", merged.Count(), sum)
	}
}

func TestMergeRWSketchesLossless(t *testing.T) {
	const eps, N = 0.25, 1000
	p := Params{Epsilon: eps, Delta: 0.2, Algorithm: window.AlgoRW, WindowLength: N, UpperBound: 8000, Seed: 66}
	sites, oracle, _ := buildDistributed(t, p, 3, 8000, 17)
	merged, err := Merge(sites...)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	l1 := float64(oracle.totalIn(N))
	bad := 0
	for k := uint64(0); k < 40; k++ {
		got := merged.Estimate(k, N)
		want := float64(oracle.freq(k, N))
		if math.Abs(got-want) > eps*l1+1 {
			bad++
		}
	}
	if bad > 8 {
		t.Errorf("merged RW sketch exceeded bound on %d/40 queries", bad)
	}
}

func TestMergeRejectsIncompatible(t *testing.T) {
	p1 := Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Seed: 1}
	p2 := Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Seed: 2}
	a, b := mustECM(t, p1), mustECM(t, p2)
	if _, err := Merge(a, b); err == nil {
		t.Fatal("Merge across seeds succeeded")
	}
	if _, err := Merge(); err == nil {
		t.Fatal("Merge of nothing succeeded")
	}
	// Count-based sketches cannot be aggregated (Figure 2).
	pc := Params{Epsilon: 0.1, Delta: 0.1, Model: window.CountBased, WindowLength: 100, Seed: 1}
	c, d := mustECM(t, pc), mustECM(t, pc)
	if _, err := Merge(c, d); err == nil {
		t.Fatal("Merge of count-based sketches succeeded; paper proves impossibility")
	}
	// The one-input identity sits behind the same checks.
	if _, err := Merge(c); err == nil {
		t.Fatal("Merge of one count-based sketch succeeded")
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("Merge of one nil input succeeded")
	}
}

func TestHierarchicalMerge(t *testing.T) {
	// Tree aggregation as in the distributed experiments: 8 sites merged
	// pairwise over 3 levels.
	const eps, N = 0.1, 2000
	p := Params{Epsilon: eps, Delta: 0.1, WindowLength: N, Seed: 40}
	sites, oracle, _ := buildDistributed(t, p, 8, 32000, 23)
	level := sites
	h := 0
	for len(level) > 1 {
		var next []*Sketch
		for i := 0; i < len(level); i += 2 {
			m, err := Merge(level[i], level[i+1])
			if err != nil {
				t.Fatalf("Merge at level %d: %v", h, err)
			}
			next = append(next, m)
		}
		level = next
		h++
	}
	root := level[0]
	bound := HierarchicalPointErrorBound(root.EffectiveSplit(), h)
	l1 := float64(oracle.totalIn(N))
	for k := uint64(0); k < 50; k++ {
		got := root.Estimate(k, N)
		want := float64(oracle.freq(k, N))
		if math.Abs(got-want) > bound*l1+1 {
			t.Errorf("h=%d Estimate(%d)=%v true=%v bound=%v", h, k, got, want, bound*l1)
		}
	}
}

func TestECMMarshalRoundTrip(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		p := Params{Epsilon: 0.2, Delta: 0.1, Algorithm: algo, WindowLength: 500, UpperBound: 4000, Seed: 10}
		s := mustECM(t, p)
		rng := rand.New(rand.NewSource(44))
		var now Tick
		for i := 0; i < 4000; i++ {
			now += Tick(rng.Intn(2))
			s.Add(uint64(rng.Intn(100)), now)
		}
		s.Advance(now)
		dec, err := Unmarshal(s.Marshal())
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", algo, err)
		}
		if !s.Compatible(dec) {
			t.Fatalf("%v: decoded sketch incompatible", algo)
		}
		for k := uint64(0); k < 100; k++ {
			if g, w := dec.Estimate(k, 500), s.Estimate(k, 500); g != w {
				t.Fatalf("%v: Estimate(%d) decoded=%v original=%v", algo, k, g, w)
			}
		}
		if dec.Count() != s.Count() || dec.Now() != s.Now() {
			t.Errorf("%v: metadata mismatch after round trip", algo)
		}
	}
}

func TestECMUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) succeeded")
	}
	if _, err := Unmarshal([]byte{0x00, 0x01}); err == nil {
		t.Error("Unmarshal of wrong tag succeeded")
	}
	p := Params{Epsilon: 0.2, Delta: 0.1, WindowLength: 100, Seed: 1}
	s := mustECM(t, p)
	s.Add(1, 1)
	enc := s.Marshal()
	for _, cut := range []int{1, 8, 20, len(enc) / 2} {
		if _, err := Unmarshal(enc[:cut]); err == nil {
			t.Errorf("Unmarshal accepted truncation to %d bytes", cut)
		}
	}
}

func TestMergeOfDecodedSketches(t *testing.T) {
	// The distributed pipeline: sites serialize, aggregator decodes and
	// merges. Must agree with merging the originals.
	p := Params{Epsilon: 0.15, Delta: 0.1, WindowLength: 1000, Seed: 33}
	sites, _, _ := buildDistributed(t, p, 2, 6000, 3)
	d0, err := Unmarshal(sites[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Unmarshal(sites[1].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Merge(sites[0], sites[1])
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Merge(d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if a, b := m1.Estimate(k, 1000), m2.Estimate(k, 1000); a != b {
			t.Fatalf("Estimate(%d): merge-of-originals=%v merge-of-decoded=%v", k, a, b)
		}
	}
}
