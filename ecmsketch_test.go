package ecmsketch_test

import (
	"math"
	"testing"

	"ecmsketch"
)

// These tests exercise the repository's public facade end to end, the way a
// downstream user would.

func TestPublicQuickstart(t *testing.T) {
	sk, err := ecmsketch.New(ecmsketch.Params{
		Epsilon:      0.1,
		Delta:        0.1,
		WindowLength: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := ecmsketch.Tick(1); i <= 500; i++ {
		sk.AddString("/home", i)
		if i%5 == 0 {
			sk.AddString("/about", i)
		}
	}
	home := sk.EstimateString("/home", 1000)
	about := sk.EstimateString("/about", 1000)
	if math.Abs(home-500) > 60 {
		t.Errorf("/home estimate %v, want ≈500", home)
	}
	if math.Abs(about-100) > 60 {
		t.Errorf("/about estimate %v, want ≈100", about)
	}
	if home <= about {
		t.Error("popularity ordering lost")
	}
}

func TestPublicMergeAndSerialize(t *testing.T) {
	p := ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1000, Seed: 5}
	a, err := ecmsketch.New(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ecmsketch.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := ecmsketch.Tick(1); i <= 300; i++ {
		a.Add(1, i)
		b.Add(1, i)
		b.Add(2, i)
	}
	enc := b.Marshal()
	dec, err := ecmsketch.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ecmsketch.Merge(a, dec)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Estimate(1, 1000)
	if math.Abs(got-600) > 100 {
		t.Errorf("merged Estimate(1) = %v, want ≈600", got)
	}
}

// TestPublicSplitHelpers: a sketch built without an explicit Params.Split
// divides ε the memory-optimal way for its query kind, so the whole budget is
// spent and none of it twice.
func TestPublicSplitHelpers(t *testing.T) {
	for _, eps := range []float64{0.05, 0.2} {
		p := ecmsketch.Params{Epsilon: eps, Delta: 0.1, WindowLength: 1000}
		point, err := ecmsketch.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if s := point.EffectiveSplit(); math.Abs(s.PointErrorBound()-eps) > 1e-9 {
			t.Errorf("point split at ε=%v has bound %v", eps, s.PointErrorBound())
		}
		p.Query = ecmsketch.InnerProductQuery
		inner, err := ecmsketch.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if s := inner.EffectiveSplit(); math.Abs(s.InnerProductErrorBound()-eps) > 1e-9 {
			t.Errorf("inner-product split at ε=%v has bound %v", eps, s.InnerProductErrorBound())
		}
	}
}

func TestPublicHierarchy(t *testing.T) {
	h, err := ecmsketch.NewHierarchy(ecmsketch.HierarchyParams{
		Sketch: ecmsketch.Params{
			Epsilon:      0.05,
			Delta:        0.1,
			WindowLength: 10000,
		},
		DomainBits: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var now ecmsketch.Tick
	for i := 0; i < 2000; i++ {
		now++
		key := uint64(i % 500)
		if i%3 == 0 {
			key = 7
		}
		if err := h.Add(key, now); err != nil {
			t.Fatal(err)
		}
	}
	h.Advance(now)
	hits, err := h.HeavyHitters(0.2, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Key != 7 {
		t.Errorf("heavy hitter 7 not found: %v", hits)
	}
	med, err := h.Quantile(0.5, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if med > 512 {
		t.Errorf("median %d implausible", med)
	}
}

func TestPublicMonitor(t *testing.T) {
	m, err := ecmsketch.NewMonitor(ecmsketch.MonitorConfig{
		Sketch: ecmsketch.Params{
			Epsilon:      0.2,
			Delta:        0.2,
			WindowLength: 1000,
		},
		Function:  ecmsketch.SelfJoinMonitor,
		Threshold: 5000,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var now ecmsketch.Tick
	for i := 0; i < 400; i++ {
		now++
		if _, err := m.Update(i%2, 1, now); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Stats().ThresholdAbove {
		t.Errorf("hot key did not cross threshold: f=%v", m.Stats().FunctionValue)
	}
}

func TestPublicCluster(t *testing.T) {
	gen, err := ecmsketch.NewStream(ecmsketch.StreamConfig{
		Events: 8000, Duration: 8000, KeyDomain: 500, Skew: 1.0, Sites: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := gen.Drain()
	cluster, err := ecmsketch.NewCluster(ecmsketch.Params{
		Epsilon: 0.1, Delta: 0.1, WindowLength: 10000, Seed: 3,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster.IngestAll(events)
	root, height, err := cluster.AggregateTree()
	if err != nil {
		t.Fatal(err)
	}
	if height != 2 {
		t.Errorf("height = %d, want 2", height)
	}
	oracle := ecmsketch.NewOracle(10000)
	for _, ev := range events {
		oracle.AddEvent(ev)
	}
	got := root.Estimate(0, 10000)
	want := float64(oracle.Freq(0, 10000))
	if math.Abs(got-want) > 0.3*float64(oracle.Total(10000))+1 {
		t.Errorf("root Estimate(0) = %v, exact %v", got, want)
	}
	if cluster.Network().Bytes() == 0 {
		t.Error("no network accounting")
	}
}
