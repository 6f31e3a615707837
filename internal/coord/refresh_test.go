package coord_test

// Tests for the incremental re-merge (Refresh), upward delta serving,
// self-organizing membership, and health-based exclusion of PR 8.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
)

// flatMerge is the reference an incremental root must stay byte-identical
// to: one from-scratch flat ⊕ over the settled parts.
func flatMerge(t *testing.T, parts ...*core.Sketch) *core.Sketch {
	t.Helper()
	for _, p := range parts {
		p.Advance(p.Now())
	}
	root, err := core.Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// flatOver is flatMerge over the engines' current snapshots.
func flatOver(t *testing.T, engines []*ecmsketch.Sharded) *core.Sketch {
	t.Helper()
	parts := make([]*core.Sketch, len(engines))
	for i, eng := range engines {
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = snap
	}
	return flatMerge(t, parts...)
}

// TestRefreshBitIdenticalToFlatMerge is the tentpole equivalence at the
// coordinator level: across mutation intervals — including idle ones where
// most sites have zero changed cells — the incrementally patched root is
// byte-identical to a from-scratch flat merge over the same engines, while
// the steady-state rounds patch only a small cell subset instead of
// rebuilding everything.
func TestRefreshBitIdenticalToFlatMerge(t *testing.T) {
	engines := deltaTestEngines(t, 4)
	sites := make([]coord.Site, len(engines))
	for i, eng := range engines {
		sites[i] = coord.NewLocalSite(fmt.Sprintf("site-%d", i), eng)
	}
	co := coord.New(sites...)
	co.SetDeltaPulls(true)

	if _, err := co.Snapshot(); err == nil {
		t.Fatal("Snapshot before first Refresh should fail")
	}
	patchedRounds := 0
	for round := 0; round < 8; round++ {
		switch {
		case round == 0: // bootstrap
		case round == 5: // idle interval: clocks advance, no arrivals
			for _, eng := range engines {
				eng.Advance(uint64(1000 + round*100 + 50))
			}
		case round == 6: // single-site interval: only one engine moves
			engines[2].Add(424242, uint64(1000+round*100))
			engines[2].Advance(uint64(1000 + round*100 + 50))
		default:
			mutateSlow(engines, round)
		}
		if err := co.Refresh(); err != nil {
			t.Fatalf("round %d: Refresh: %v", round, err)
		}
		st := co.LastRefresh()
		if round == 0 && !st.RebuiltAll {
			t.Fatal("bootstrap round should rebuild all")
		}
		if round > 0 {
			if st.RebuiltAll {
				t.Fatalf("round %d: steady-state refresh rebuilt from scratch", round)
			}
			patchedRounds++
		}
		got, err := co.Snapshot()
		if err != nil {
			t.Fatalf("round %d: Snapshot: %v", round, err)
		}
		want := flatOver(t, engines)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("round %d: incremental root differs from from-scratch flat merge", round)
		}
		if st.Contributors != len(engines) || st.Stale != 0 || st.Excluded != 0 {
			t.Fatalf("round %d: stats %+v, want %d clean contributors", round, st, len(engines))
		}
	}
	if patchedRounds != 7 {
		t.Fatalf("patched %d rounds, want 7", patchedRounds)
	}
}

// TestStackedCoordinatorDeltaServing pins the upward half of the tentpole: a
// parent coordinator pulling child coordinators receives cursor-based
// deltas from each child's patched root — in steady state a small fraction of
// the full view — and its merged result matches theirs exactly. Two shapes:
// one child over 3 leaves, and the fan-in-3 tree of 9 leaves → 3 mids → root.
func TestStackedCoordinatorDeltaServing(t *testing.T) {
	for _, leaves := range []int{3, 9} {
		engines := deltaTestEngines(t, leaves)
		leafSites := make([]coord.Site, len(engines))
		for i, eng := range engines {
			leafSites[i] = coord.NewLocalSite(fmt.Sprintf("leaf-%d", i), eng)
		}
		// Each child satisfies DeltaSnapshotSource, so it nests under a
		// parent like any engine.
		var children []*coord.Coordinator
		var childSites []coord.Site
		for i := 0; i < leaves; i += 3 {
			child := coord.New(leafSites[i : i+3]...)
			child.SetDeltaPulls(true)
			children = append(children, child)
			childSites = append(childSites, coord.NewLocalSite(fmt.Sprintf("child-%d", i/3), child))
		}
		parent := coord.New(childSites...)
		parent.SetDeltaPulls(true)

		var fullSize, steadyDelta int64
		for round := 0; round < 6; round++ {
			if round > 0 {
				mutateSlow(engines, round)
			}
			for i, child := range children {
				if err := child.Refresh(); err != nil {
					t.Fatalf("%d leaves round %d: child %d refresh: %v", leaves, round, i, err)
				}
			}
			before := parent.PulledBytes()
			if err := parent.Refresh(); err != nil {
				t.Fatalf("%d leaves round %d: parent refresh: %v", leaves, round, err)
			}
			pulled := parent.PulledBytes() - before
			if round == 0 {
				fullSize = pulled
			} else if round >= 2 {
				steadyDelta += pulled
			}
			// The parent's incrementally patched root must equal the root of
			// a fresh full-pull tree of the same shape over the same leaves:
			// every level's patched root is held to its from-scratch merge,
			// the invariant the leaf-level test pins, stacked.
			parentRoot, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			mids := make([]*core.Sketch, len(children))
			for i := range children {
				mids[i] = flatOver(t, engines[3*i:3*i+3])
			}
			want := flatMerge(t, mids...)
			if !bytes.Equal(parentRoot.Marshal(), want.Marshal()) {
				t.Fatalf("%d leaves round %d: parent root differs from a fresh full-pull tree", leaves, round)
			}
		}
		if parent.DeltaPulls() < uint64(5*len(children)) {
			t.Fatalf("%d leaves: parent answered %d delta pulls, want ≥%d", leaves, parent.DeltaPulls(), 5*len(children))
		}
		if avg := steadyDelta / 4; avg*5 > fullSize {
			t.Fatalf("%d leaves: steady-state parent delta bytes/round %d not ≥5× below full %d", leaves, avg, fullSize)
		}
	}
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
			co.SetDeltaPulls(true)
			co.SetResilient(true)

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
	co.SetDeltaPulls(true)
	co.SetResilient(true)

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
	co.SetDeltaPulls(true)
	co.SetResilient(true)
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
	co2.SetDeltaPulls(true)
	co2.SetResilient(true)
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
	co.SetDeltaPulls(true)
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
	co.SetDeltaPulls(true)
	co.SetResilient(true)
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

// TestRefreshSurvivesExpiry is the regression test for the nil-note crash:
// a delta-pulling coordinator patches its retained baselines and its root
// with PatchMerged(…, nil), which advances every unpatched cell — and once
// the windows are full such a cell can drop an expired bucket, where the
// unguarded note(i) call used to die on a nil func inside a pull goroutine.
// The EH case is the configuration that crashed (eight 2-stripe sites, one
// Zipf event per site per tick, a refresh every W/16 ticks: a nil-func
// SIGSEGV in round 44); the wave engines run smaller ones. All stream for
// more than three windows, and every round's root must also stay
// byte-identical to a from-scratch flat merge while buckets expire under it.
func TestRefreshSurvivesExpiry(t *testing.T) {
	for _, tc := range []struct {
		algo   ecmsketch.Algorithm
		sites  int
		eps    float64
		window uint64
	}{
		{ecmsketch.AlgoEH, 8, 0.05, 4096},
		{ecmsketch.AlgoDW, 4, 0.1, 1024},
		{ecmsketch.AlgoRW, 4, 0.25, 512}, // randomized waves cost 1/ε² per cell
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			every, ticks := tc.window/16, 3*tc.window+tc.window/8
			engines := make([]*ecmsketch.Sharded, tc.sites)
			sites := make([]coord.Site, tc.sites)
			zipfs := make([]*rand.Zipf, tc.sites)
			for i := range engines {
				eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
					Params: ecmsketch.Params{Epsilon: tc.eps, Delta: tc.eps, Algorithm: tc.algo,
						WindowLength: tc.window, UpperBound: 2 * tc.window, Seed: 41},
					Shards: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				engines[i] = eng
				sites[i] = coord.NewLocalSite(fmt.Sprintf("site-%d", i), eng)
				zipfs[i] = rand.NewZipf(rand.New(rand.NewSource(int64(100+i))), 1.1, 1, 1<<16)
			}
			co := coord.New(sites...)
			co.SetDeltaPulls(true)
			co.SetResilient(true)
			for tick := uint64(1); tick <= ticks; tick++ {
				for i, eng := range engines {
					eng.Add(zipfs[i].Uint64(), tick)
				}
				if tick%every != 0 {
					continue
				}
				if err := co.Refresh(); err != nil {
					t.Fatalf("tick %d: Refresh: %v", tick, err)
				}
				if st := co.LastRefresh(); st.Stale != 0 || st.Excluded != 0 {
					t.Fatalf("tick %d: in-process sites went stale: %+v", tick, st)
				}
				got, err := co.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				want := flatOver(t, engines)
				if !bytes.Equal(got.Marshal(), want.Marshal()) {
					t.Fatalf("tick %d: patched root differs from from-scratch flat merge", tick)
				}
			}
		})
	}
}
