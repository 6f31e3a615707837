package coord_test

// Tests for the incremental re-merge (Refresh), upward delta serving,
// self-organizing membership, and health-based exclusion.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
	"ecmsketch/internal/difftest"
)

// flatOver is the one ⊕ level a coordinator over engines holds: one Merge
// over every engine's stripe parts, in engine order and then stripe order.
func flatOver(t *testing.T, engines []*ecmsketch.Sharded) *core.Sketch {
	srcs := make([]ecmsketch.DeltaSnapshotter, len(engines))
	for i, eng := range engines {
		srcs[i] = eng
	}
	return difftest.FlatMerge(t, srcs...)
}

// faultSite wraps a Site with switchable failure injection: complete outages
// and torn delta payloads.
type faultSite struct {
	inner coord.Site

	mu   sync.Mutex
	down bool
	tear bool
}

func (s *faultSite) setDown(v bool) { s.mu.Lock(); s.down = v; s.mu.Unlock() }
func (s *faultSite) setTear(v bool) { s.mu.Lock(); s.tear = v; s.mu.Unlock() }
func (s *faultSite) state() (down, tear bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down, s.tear
}

func (s *faultSite) Name() string { return s.inner.Name() }

func (s *faultSite) Delta(since core.Cursor) ([]byte, core.Cursor, bool, int, error) {
	down, tear := s.state()
	if down {
		return nil, core.Cursor{}, false, 0, fmt.Errorf("site %s: connection refused", s.Name())
	}
	payload, cur, full, size, err := s.inner.Delta(since)
	// Tear incremental bodies only — the coordinator's recovery path is a
	// full re-pull, which a real torn link would let through eventually.
	if err == nil && !full && tear && len(payload) > 4 {
		payload = payload[:len(payload)-4]
	}
	return payload, cur, full, size, err
}

// TestResilientFlappingSites is the failure-injection table: a site that
// goes dark for several intervals, one that keeps tearing its delta bodies,
// and one that flaps down-up-down. In every case the resilient coordinator
// keeps serving a view built from the healthy sites (plus the flaky site's
// retained baseline), and re-admits the site once it recovers.
func TestResilientFlappingSites(t *testing.T) {
	cases := []struct {
		name string
		// inject flips the fault for round r and reports whether the faulty
		// site is expected down that round.
		inject func(f *faultSite, round int) bool
		// stale: a down round serves the site's retained baseline rather
		// than excluding it.
		stale bool
	}{
		{
			name: "down-three-intervals",
			inject: func(f *faultSite, round int) bool {
				f.setDown(round >= 2 && round <= 4)
				return round >= 2 && round <= 4
			},
			stale: true,
		},
		{
			name: "torn-bodies-every-round",
			inject: func(f *faultSite, round int) bool {
				// Tearing is absorbed by the transparent same-round full
				// re-pull: never down, never stale.
				f.setTear(round >= 2)
				return false
			},
		},
		{
			name: "flapping",
			inject: func(f *faultSite, round int) bool {
				down := round == 2 || round == 4
				f.setDown(down)
				return down
			},
			stale: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := deltaTestEngines(t, 3)
			flaky := &faultSite{inner: coord.NewLocalSite("flaky", engines[0])}
			co := coord.New(
				flaky,
				coord.NewLocalSite("steady-1", engines[1]),
				coord.NewLocalSite("steady-2", engines[2]),
			)

			downRounds := 0
			for round := 0; round < 12; round++ {
				if round > 0 {
					mutateSlow(engines, round)
				}
				expectDown := tc.inject(flaky, round)
				if err := co.Refresh(); err != nil {
					t.Fatalf("round %d: resilient Refresh failed: %v", round, err)
				}
				st := co.LastRefresh()
				if expectDown {
					downRounds++
					if !tc.stale {
						t.Fatal("test table inconsistent")
					}
				}
				// The view must always be servable, and on rounds where every
				// member contributed fresh it must exactly match a flat merge
				// over the current engines. (A backoff window can keep a
				// recovered site stale for a few rounds past the fault — those
				// rounds are identified by the stats, not the fault schedule.)
				got, err := co.Snapshot()
				if err != nil {
					t.Fatalf("round %d: no servable view: %v", round, err)
				}
				if st.Stale == 0 && st.Excluded == 0 {
					want := flatOver(t, engines)
					if !bytes.Equal(got.Marshal(), want.Marshal()) {
						t.Fatalf("round %d: all-fresh view diverged from flat merge", round)
					}
				}
				if expectDown && st.Stale+st.Excluded == 0 {
					t.Fatalf("round %d: down site neither stale nor excluded: %+v", round, st)
				}
			}
			if downRounds > 0 {
				// After recovery the site must be re-admitted: probe rounds
				// already ran above (the loop extends past the last fault), so
				// health is clean again.
				for _, st := range co.SiteStatuses() {
					if st.Name == "flaky" && (!st.Healthy || st.BackoffRounds > 0) {
						t.Fatalf("recovered site not re-admitted: %+v", st)
					}
				}
			}
			// Final view: everyone healthy, byte-identical to from-scratch.
			got, _ := co.Snapshot()
			want := flatOver(t, engines)
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatal("final view diverged after fault cycle")
			}
		})
	}
}

// TestResilientNoBaselineExclusion: a site that is down from the very first
// round has no retained baseline to serve — it is excluded, the remaining
// sites form the view, and it joins cleanly once it comes up.
func TestResilientNoBaselineExclusion(t *testing.T) {
	engines := deltaTestEngines(t, 2)
	dead := &faultSite{inner: coord.NewLocalSite("dead", engines[0])}
	dead.setDown(true)
	co := coord.New(dead, coord.NewLocalSite("alive", engines[1]))

	if err := co.Refresh(); err != nil {
		t.Fatalf("bootstrap with dead site: %v", err)
	}
	if st := co.LastRefresh(); st.Excluded != 1 || st.Contributors != 1 {
		t.Fatalf("stats %+v, want 1 contributor 1 excluded", st)
	}
	got, err := co.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := flatOver(t, engines[1:])
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("excluded-site view should equal merge of the remaining site")
	}

	// Recovery: run rounds until the backoff horizon passes, then the site
	// contributes and the view covers both engines.
	dead.setDown(false)
	for round := 0; round < maxProbeRounds(t); round++ {
		if err := co.Refresh(); err != nil {
			t.Fatalf("recovery round %d: %v", round, err)
		}
		if st := co.LastRefresh(); st.Contributors == 2 {
			got, _ := co.Snapshot()
			want := flatOver(t, engines)
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Fatal("post-recovery view diverged")
			}
			return
		}
	}
	t.Fatal("dead site never re-admitted after recovery")
}

// maxProbeRounds bounds re-admission loops: well past the backoff cap.
func maxProbeRounds(t *testing.T) int { t.Helper(); return 64 }

// TestAllSitesExcluded: when every member is excluded (down with no
// baselines), Refresh reports the condition and an existing view survives.
func TestAllSitesExcluded(t *testing.T) {
	engines := deltaTestEngines(t, 2)
	a := &faultSite{inner: coord.NewLocalSite("a", engines[0])}
	b := &faultSite{inner: coord.NewLocalSite("b", engines[1])}
	co := coord.New(a, b)
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	before, _ := co.Snapshot()

	// With retained baselines both sites go stale, not excluded: still serving.
	a.setDown(true)
	b.setDown(true)
	if err := co.Refresh(); err != nil {
		t.Fatalf("stale-baseline round: %v", err)
	}
	after, _ := co.Snapshot()
	if !bytes.Equal(before.Marshal(), after.Marshal()) {
		t.Fatal("all-stale round should leave the view exactly as it was")
	}

	// A fresh coordinator with no baselines at all: Refresh errors, no view.
	co2 := coord.New(a, b)
	if err := co2.Refresh(); err == nil {
		t.Fatal("want error when every site is excluded with no baseline")
	}
	if _, err := co2.Snapshot(); err == nil {
		t.Fatal("no view should exist after a fully failed bootstrap")
	}
}

// TestMembershipChangeRebuilds: adding and removing sites mid-flight changes
// the contributor set; the next Refresh rebuilds wholesale (RebuiltAll) and
// the view tracks the new membership byte-for-byte.
func TestMembershipChangeRebuilds(t *testing.T) {
	engines := deltaTestEngines(t, 3)
	co := coord.New(
		coord.NewLocalSite("site-0", engines[0]),
		coord.NewLocalSite("site-1", engines[1]),
	)
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := co.LastRefresh(); st.RebuiltAll {
		t.Fatal("steady membership should patch, not rebuild")
	}

	co.AddSite(coord.NewLocalSite("site-2", engines[2]))
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := co.LastRefresh(); !st.RebuiltAll || st.Contributors != 3 {
		t.Fatalf("post-add stats %+v, want RebuiltAll with 3 contributors", st)
	}
	got, _ := co.Snapshot()
	if want := flatOver(t, engines); !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("post-add view diverged")
	}

	if !co.RemoveSite("site-0") {
		t.Fatal("RemoveSite(site-0) = false")
	}
	if co.RemoveSite("site-0") {
		t.Fatal("second RemoveSite(site-0) = true")
	}
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := co.LastRefresh(); !st.RebuiltAll || st.Contributors != 2 {
		t.Fatalf("post-remove stats %+v, want RebuiltAll with 2 contributors", st)
	}
	got, _ = co.Snapshot()
	if want := flatOver(t, engines[1:]); !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("post-remove view diverged")
	}

	// Replacing a member under the same name drops its baseline: the next
	// pull re-bootstraps it with a full transfer.
	fulls := co.FullPulls()
	co.AddSite(coord.NewLocalSite("site-1", engines[1]))
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	if co.FullPulls() != fulls+1 {
		t.Fatal("re-registered site did not re-bootstrap from a full pull")
	}
}

// TestDynamicMembershipConcurrent hammers membership mutation, health
// inspection, and upward serving against a running refresh loop — the test
// CI runs under -race.
func TestDynamicMembershipConcurrent(t *testing.T) {
	engines := deltaTestEngines(t, 4)
	co := coord.New(coord.NewLocalSite("anchor", engines[0]))
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // refresh loop
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			mutateSlow(engines[:1], r)
			if err := co.Refresh(); err != nil {
				t.Errorf("refresh round %d: %v", r, err)
				return
			}
		}
	}()
	go func() { // churn the tail membership
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("churn-%d", r%3)
			co.AddSite(coord.NewLocalSite(name, engines[1+r%3]))
			if r%2 == 1 {
				co.RemoveSite(name)
			}
		}
	}()
	go func() { // observe: health, view, upward deltas
		defer wg.Done()
		var cur core.Cursor
		for r := 0; r < rounds; r++ {
			co.SiteStatuses()
			if _, err := co.Snapshot(); err != nil {
				t.Errorf("observer round %d: %v", r, err)
				return
			}
			if _, err := co.QueryBatch(core.QueryBatch{Keys: []uint64{7}, Total: true}); err != nil {
				t.Errorf("observer round %d: query: %v", r, err)
				return
			}
			if _, next, _, err := co.DeltaSnapshot(cur); err == nil {
				cur = next
			}
		}
	}()
	wg.Wait()

	// Whatever membership survived, one more refresh must converge to the
	// flat merge over exactly those sites' engines.
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	got, err := co.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var members []*ecmsketch.Sharded
	members = append(members, engines[0])
	for _, st := range co.SiteStatuses() {
		if st.Name != "anchor" {
			var idx int
			fmt.Sscanf(st.Name, "churn-%d", &idx)
			members = append(members, engines[1+idx])
		}
	}
	if want := flatOver(t, members); !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("post-churn view diverged from flat merge over surviving membership")
	}
}
