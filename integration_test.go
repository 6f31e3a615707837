package ecmsketch_test

import (
	"math"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/geom"
	"ecmsketch/internal/workload"
)

// TestEndToEndNetworkMonitoring drives the paper's introduction scenario
// through the public sketch API and the reproduction harness beside it: 33
// routers observe a skewed, diurnal request stream (workload); their
// sketches travel the binary aggregation tree of the distributed
// experiments (coord.Cluster); the root answers global point and self-join
// queries; a dyadic hierarchy flags overloaded targets; and a geometric
// monitor (geom) guards the global F₂ — all cross-checked against the exact
// oracle.
func TestEndToEndNetworkMonitoring(t *testing.T) {
	const (
		window = 500_000
		events = 60_000
		sites  = 33
		eps    = 0.1
	)
	gen, err := workload.NewGenerator(workload.Config{
		Events:    events,
		Duration:  2 * window,
		KeyDomain: 1 << 14,
		Skew:      0.9,
		Sites:     sites,
		SiteSkew:  0.6,
		Diurnal:   true,
		Seed:      17,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.Drain()
	oracle := workload.NewOracle(window)
	for _, ev := range stream {
		oracle.AddEvent(ev)
	}

	// --- distributed summarization + aggregation ---
	params := ecmsketch.Params{
		Epsilon:      eps,
		Delta:        0.1,
		WindowLength: window,
		Seed:         4,
	}
	cluster, err := coord.NewCluster(params, sites)
	if err != nil {
		t.Fatal(err)
	}
	now := cluster.IngestAll(stream)
	root, height, err := cluster.AggregateTree()
	if err != nil {
		t.Fatal(err)
	}
	if height != 6 {
		t.Errorf("tree height = %d, want 6 for 33 sites", height)
	}
	if cluster.Network().Bytes() == 0 {
		t.Error("aggregation shipped no bytes")
	}

	// Global point queries within ε·‖a‖₁ of the oracle.
	l1 := float64(oracle.Total(window))
	for k := uint64(0); k < 40; k++ {
		got := root.Estimate(k, window)
		want := float64(oracle.Freq(k, window))
		if math.Abs(got-want) > eps*l1 {
			t.Errorf("root Estimate(%d)=%v oracle=%v exceeds ε·‖a‖=%v", k, got, want, eps*l1)
		}
	}
	// Global self-join within ε·‖a‖₁².
	if got, want := root.SelfJoin(window), oracle.SelfJoin(window); math.Abs(got-want) > eps*l1*l1 {
		t.Errorf("root SelfJoin=%v oracle=%v", got, want)
	}

	// --- derived heavy-hitter detection on the union stream ---
	hier, err := ecmsketch.NewHierarchy(ecmsketch.HierarchyParams{
		Sketch: ecmsketch.Params{
			Epsilon:      0.02,
			Delta:        0.1,
			WindowLength: window,
			Seed:         9,
		},
		DomainBits: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range stream {
		if err := hier.Add(ev.Key, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	hier.Advance(now)
	hits, err := hier.HeavyHitters(0.05, window)
	if err != nil {
		t.Fatal(err)
	}
	reported := map[uint64]bool{}
	for _, it := range hits {
		reported[it.Key] = true
	}
	for _, ev := range oracle.HeavyHitters(0.05+0.02, window) {
		if !reported[ev.Key] {
			t.Errorf("true heavy hitter %d (freq %d) missed", ev.Key, ev.Time)
		}
	}

	// --- continuous threshold monitoring over the same stream ---
	mon, err := geom.NewMonitor(geom.Config{
		Sketch: ecmsketch.Params{
			Epsilon:      0.2,
			Delta:        0.2,
			Query:        ecmsketch.InnerProductQuery,
			WindowLength: window,
			Seed:         2,
		},
		Function:   geom.SelfJoinFn{},
		Threshold:  oracle.SelfJoin(window) / float64(4*4) * 1.4,
		CheckEvery: 32,
		Balancing:  true,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range stream {
		if _, err := mon.Update(ev.Site%4, ev.Key, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	st := mon.Stats()
	if st.Updates != events {
		t.Errorf("monitor processed %d updates", st.Updates)
	}
	if st.BytesSent >= mon.NaiveSyncBytes() {
		t.Errorf("geometric monitoring sent %d bytes, naive %d — no savings", st.BytesSent, mon.NaiveSyncBytes())
	}

	// --- serialization across the "network" still answers identically ---
	wire := root.Marshal()
	remote, err := ecmsketch.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 20; k++ {
		if a, b := root.Estimate(k, window), remote.Estimate(k, window); a != b {
			t.Fatalf("wire round trip changed Estimate(%d): %v vs %v", k, a, b)
		}
	}
}
