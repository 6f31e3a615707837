package geom

import (
	"math/rand"
	"testing"
)

// TestPairMonitorBalancing pins that a two-stream deployment runs the whole
// protocol, Config.Balancing included: violations are first offered to the
// balancing step, some are absorbed, and the recorded threshold side stays
// sound throughout.
func TestPairMonitorBalancing(t *testing.T) {
	cfg := Config{Sketch: testSketchParams(), Threshold: 150, Balancing: true}
	m, err := NewPairMonitor(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	var now Tick
	for i := 0; i < 600; i++ {
		now++
		site := rng.Intn(3)
		if _, err := m.Update(site, StreamA, uint64(rng.Intn(50)), now); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Update(site, StreamB, uint64(rng.Intn(50)), now); err != nil {
			t.Fatal(err)
		}
		if gv := m.GlobalValue(now); (gv > cfg.Threshold) != m.Stats().ThresholdAbove {
			t.Fatalf("step %d: global f=%v but monitor believes above=%v (balancing broke soundness)",
				i, gv, m.Stats().ThresholdAbove)
		}
	}
	st := m.Stats()
	if st.BalanceAttempts == 0 {
		t.Fatalf("Balancing is set but no violation was offered to it: %+v", st)
	}
	if st.BalanceSuccesses == 0 {
		t.Errorf("balancing never absorbed a violation: %+v", st)
	}
}

// TestPairMonitorAdvanceDetectsExpiry: once the overlapping period has left
// the window, Advance alone — no further arrival — detects the downward
// crossing.
func TestPairMonitorAdvanceDetectsExpiry(t *testing.T) {
	sp := testSketchParams()
	sp.WindowLength = 200
	m, err := NewPairMonitor(Config{Sketch: sp, Threshold: 900}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var now Tick
	for i := 0; i < 200; i++ {
		now++
		for _, st := range []Stream{StreamA, StreamB} {
			if _, err := m.Update(i%2, st, 1, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !m.Stats().ThresholdAbove {
		t.Fatalf("shared hot key did not push the join above threshold: f=%v", m.Stats().FunctionValue)
	}
	crossings := m.Stats().Crossings
	if !m.Advance(now + 500) {
		t.Fatal("Advance past the hot period did not synchronize")
	}
	st := m.Stats()
	if st.ThresholdAbove || st.Crossings != crossings+1 {
		t.Errorf("expiry-only crossing missed: above=%v crossings=%d (was %d) f=%v",
			st.ThresholdAbove, st.Crossings, crossings, st.FunctionValue)
	}
}
