package coord_test

import (
	"testing"

	"ecmsketch"
	"ecmsketch/internal/difftest"
)

var algos = []ecmsketch.Algorithm{ecmsketch.AlgoEH, ecmsketch.AlgoDW, ecmsketch.AlgoRW}

// shardedSites is n doors over Sharded engines of the given stripes (bare
// sketches for RW), one per site.
func shardedSites(h *difftest.H, n, stripes int) []*difftest.Door {
	doors := make([]*difftest.Door, n)
	for i := range doors {
		doors[i] = h.Site(i, stripes)
	}
	return doors
}

// slowLog preloads sites sites with 2,000 arrivals each, then runs rounds
// slow-moving rounds of a few keys a site — the regime deltas exist for.
// Before the last round come an idle round, where every site's clock
// advances with no arrivals, and a round that writes one site only.
func slowLog(sites, rounds int) difftest.Log {
	l := difftest.Gen(1, difftest.Shape{Window: 50000, Events: 2000 * sites, Ticks: 500, Sites: sites, Keys: 83, Batch: 500})
	from := ecmsketch.Tick(1000)
	slow := func(seed int64, rounds int) {
		g := difftest.Gen(seed, difftest.Shape{Window: 50000, Events: 4 * sites * rounds, Ticks: 100 * ecmsketch.Tick(rounds),
			Sites: sites, Keys: 400, Batch: 4, Pulls: rounds, Checks: rounds})
		for _, op := range g.Ops {
			for i := range op.Events {
				op.Events[i].Tick += from
			}
		}
		l.Ops = append(l.Ops, g.Ops...)
		from += 100 * ecmsketch.Tick(rounds)
	}
	round := []difftest.Op{{Kind: difftest.OpPull}, {Kind: difftest.OpCheck}}
	slow(2, rounds-1)
	for i := 0; i < sites; i++ {
		l.Ops = append(l.Ops, difftest.Op{Kind: difftest.OpAdvance, Site: i, Tick: from + 50})
	}
	l.Ops = append(l.Ops, round...)
	one := sites / 2
	l.Ops = append(l.Ops, difftest.Op{Kind: difftest.OpBatch, Site: one, Events: []ecmsketch.Event{{Key: 424242, Tick: from + 100}}},
		difftest.Op{Kind: difftest.OpAdvance, Site: one, Tick: from + 150})
	l.Ops = append(l.Ops, round...)
	from += 200
	slow(3, 1)
	return l
}

// TestCrossTransportBitIdentical is the transport-abstraction contract: the
// same site engines aggregated through the in-process transport and over
// HTTP produce byte-identical merged summaries and identical network
// accounting.
func TestCrossTransportBitIdentical(t *testing.T) {
	h := difftest.New(t, ecmsketch.Params{Epsilon: 0.15, Delta: 0.1, WindowLength: 20000, Seed: 42})
	sites := shardedSites(h, 3, 2)
	local, remote := h.Coord(difftest.Local, sites...), h.Coord(difftest.HTTP, sites...)
	h.Same(local, remote)
	h.Run(difftest.Gen(42, difftest.Shape{Window: 20000, Events: 12000, Ticks: 5000, Sites: 3, Keys: 4000,
		Batch: 512, Pulls: 3, Checks: 3}))
	lc, nc := local.Coordinator(), remote.Coordinator()
	if lb, nb := lc.Network().Bytes(), nc.Network().Bytes(); lb != nb || lb != lc.PulledBytes() {
		t.Errorf("network bytes: local %d, networked %d, pulled %d", lb, nb, lc.PulledBytes())
	}
	if lm, nm := lc.Network().Messages(), nc.Network().Messages(); lm != nm || lm != 3*3 {
		t.Errorf("network messages: local %d, networked %d; want one per site per round", lm, nm)
	}
}

// TestOneMemberViewIsTheSite: ⊕ of one summary is that summary. A
// coordinator over one plain sketch answers and encodes as the site's own
// settled summary — at the bootstrap round and over fifteen delta rounds
// whose ticks run well past the window — for every synopsis, where a
// one-input Theorem-4 replay would re-bucket the site.
func TestOneMemberViewIsTheSite(t *testing.T) {
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			h := difftest.New(t, ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, Algorithm: algo,
				WindowLength: 1000, UpperBound: 1 << 14, Seed: 3})
			site := h.Sketch(0, difftest.Singles)
			co := h.Coord(difftest.Local, site)
			h.Same(site, co, h.Merged(site))
			h.Run(difftest.Gen(3, difftest.Shape{Window: 1000, Events: 5200, Ticks: 2600, Keys: 101,
				Batch: 400, Pulls: 13, Checks: 4}))
			if n, rounds := co.Coordinator().DeltaPulls(), len(co.Pulled); n != uint64(rounds-1) {
				t.Errorf("%d delta pulls over %d rounds", n, rounds)
			}
		})
	}
}

// TestRefreshBitIdenticalToFlatMerge is the tentpole equivalence at the
// coordinator level: across slow mutation rounds — an idle one where no
// site has a changed cell and a one-site one among them — the
// incrementally patched root is byte-identical to a from-scratch flat merge
// over the same engines, and only the bootstrap round rebuilds everything.
func TestRefreshBitIdenticalToFlatMerge(t *testing.T) {
	h := difftest.New(t, ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 50000, Seed: 99})
	sites := shardedSites(h, 4, 4)
	co := h.Coord(difftest.Local, sites...)
	if _, err := co.Coordinator().Snapshot(); err == nil {
		t.Fatal("Snapshot before first Refresh should fail")
	}
	h.Same(co, h.Merged(sites...))
	h.Run(slowLog(4, 8))
}

// TestStackedCoordinatorDeltaServing pins the upward half: a parent
// coordinator pulling child coordinators receives cursor deltas from each
// child's patched root — in steady state a small fraction of the full view
// — and its root equals a fresh full-pull tree of the same shape. Two
// shapes: one child over 3 leaves, and 9 leaves → 3 mids → root.
func TestStackedCoordinatorDeltaServing(t *testing.T) {
	for _, leaves := range []int{3, 9} {
		h := difftest.New(t, ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 50000, Seed: 99})
		sites := shardedSites(h, leaves, 4)
		var mids, fresh []*difftest.Door
		for i := 0; i < leaves; i += 3 {
			mids = append(mids, h.Coord(difftest.Local, sites[i:i+3]...))
			fresh = append(fresh, h.Merged(sites[i:i+3]...))
		}
		parent := h.Coord(difftest.Local, mids...)
		h.Same(parent, h.Merged(fresh...))
		h.Run(slowLog(leaves, 6))
		if got, want := parent.Coordinator().DeltaPulls(), uint64(5*len(mids)); got < want {
			t.Fatalf("%d leaves: parent answered %d delta pulls, want ≥%d", leaves, got, want)
		}
		steady := 0
		for _, n := range parent.Pulled[2:] {
			steady += n
		}
		if avg := steady / len(parent.Pulled[2:]); avg*5 > parent.Pulled[0] {
			t.Fatalf("%d leaves: steady-state parent delta bytes/round %d not ≥5× below full %d", leaves, avg, parent.Pulled[0])
		}
	}
}

// TestRefreshSurvivesExpiry is the regression test for the nil-note crash:
// a delta-pulling coordinator patches its baselines and root with
// PatchMerged(…, nil), which advances every unpatched cell — and once the
// windows are full such a cell can drop an expired bucket. The EH case is
// the configuration that crashed (eight 2-stripe sites, Zipf arrivals, a
// refresh every W/16 ticks); the wave engines run smaller ones, RW over bare
// sketches. All stream for more than three windows, and every round's root
// stays byte-identical to a from-scratch flat merge while buckets expire
// under it.
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
			h := difftest.New(t, ecmsketch.Params{Epsilon: tc.eps, Delta: tc.eps, Algorithm: tc.algo,
				WindowLength: tc.window, UpperBound: 2 * tc.window, Seed: 41})
			sites := shardedSites(h, tc.sites, 2)
			h.Same(h.Coord(difftest.Local, sites...), h.Merged(sites...))
			ticks := 3*tc.window + tc.window/8
			h.Run(difftest.Gen(100, difftest.Shape{Window: tc.window, Events: tc.sites * int(ticks), Ticks: ticks,
				Sites: tc.sites, Keys: 1 << 16, Zipf: 1.1, Batch: 16, Pulls: 50, Checks: 10}))
		})
	}
}

// TestDeltaCoordinatorBitIdentical: across slow rounds, coordinators that
// baseline once and then only apply deltas — in process and over HTTP —
// hold roots byte-identical to fresh coordinators pulling every site in
// full at the same versions, while pulling far fewer bytes.
func TestDeltaCoordinatorBitIdentical(t *testing.T) {
	h := difftest.New(t, ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 50000, Seed: 99})
	sites := shardedSites(h, 3, 4)
	local, fresh := h.Coord(difftest.Local, sites...), h.Fresh(difftest.Local, sites...)
	remote := h.Coord(difftest.HTTP, sites...)
	h.Same(fresh, local, remote, h.Fresh(difftest.HTTP, sites...), h.Merged(sites...))
	h.Run(slowLog(3, 6))
	for _, co := range []*difftest.Door{local, remote} {
		if got := co.Coordinator().DeltaPulls(); got < 15 {
			t.Fatalf("%s answered %d delta pulls, want ≥15", co.Name, got)
		}
	}
	var steadyFull, steadyDelta int
	for round := 2; round < len(local.Pulled); round++ {
		steadyFull += fresh.Pulled[round]
		steadyDelta += local.Pulled[round]
	}
	if steadyDelta*5 > steadyFull {
		t.Fatalf("steady-state delta bytes %d not ≥5× below full %d", steadyDelta, steadyFull)
	}
}

// TestFullAndDeltaPullsAgree pins the one pull path: coordinators that only
// ever applied deltas and fresh coordinators built each round over the same
// sites — a plain sketch, a one- and a four-stripe engine (plain sketches
// for RW) and a child coordinator — in process and over HTTP hold
// byte-identical roots after every Refresh, for every synopsis, while the
// stream slides more than three windows past. Each fresh coordinator pulls
// each site in full once.
func TestFullAndDeltaPullsAgree(t *testing.T) {
	const window = 256
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			h := difftest.New(t, ecmsketch.Params{Epsilon: 0.25, Delta: 0.25, Algorithm: algo,
				WindowLength: window, UpperBound: 1 << 12, Seed: 17})
			child := h.Coord(difftest.Local, h.Site(3, 2))
			sites := []*difftest.Door{h.Sketch(0, difftest.Batches), h.Site(1, 1), h.Site(2, 4), child}
			h.Same(h.Coord(difftest.Local, sites...), h.Coord(difftest.HTTP, sites...),
				h.Fresh(difftest.Local, sites...), h.Fresh(difftest.HTTP, sites...))
			h.Run(difftest.Gen(17, difftest.Shape{Window: window, Events: 8 * 896, Ticks: 896, Sites: 4, Keys: 120,
				Batch: 16, Pulls: 28, Checks: 4}))
		})
	}
}

// TestRootIsOneFlatMergeOverStripeParts pins the coordinator's one ⊕
// level: over sites at 1, 2 and 4 stripes plus a plain sketch, every delta
// round's root is byte-identical to a single Merge over all the sites'
// stripe parts (membership order, then stripe order) while the window
// slides past three lengths; a one-member coordinator over a 4-stripe site
// serves the same flat merge of its stripes.
func TestRootIsOneFlatMergeOverStripeParts(t *testing.T) {
	const W = 512
	for _, algo := range []ecmsketch.Algorithm{ecmsketch.AlgoEH, ecmsketch.AlgoDW} {
		t.Run(algo.String(), func(t *testing.T) {
			h := difftest.New(t, ecmsketch.Params{Epsilon: 0.2, Delta: 0.2, Algorithm: algo,
				WindowLength: W, UpperBound: 1 << 12, Seed: 17})
			var sites []*difftest.Door
			for i, shards := range []int{1, 2, 4} {
				sites = append(sites, h.Sharded(i, ecmsketch.ShardedConfig{Shards: shards}, difftest.Batches))
			}
			sites = append(sites, h.Sketch(3, difftest.Batches))
			co := h.Coord(difftest.Local, sites...)
			h.Same(co, h.Merged(sites...))
			h.Same(h.Coord(difftest.Local, sites[2]), h.Merged(sites[2]))
			h.Run(difftest.Gen(23, difftest.Shape{Window: W, Events: 5 * (3*W + W/4), Ticks: 3*W + W/4, Sites: 4,
				Keys: 300, Batch: 8, Pulls: 26, Checks: 6}))
			if got, want := co.Coordinator().DeltaPulls(), uint64(len(sites)*(len(co.Pulled)-1)); got != want {
				t.Errorf("%d delta pulls over %d rounds, want %d", got, len(co.Pulled), want)
			}
		})
	}
}

// TestCoordinatorOverStripedSitesAccuracy pins what the single ⊕ level buys
// in answers: a coordinator over three 4-stripe sites (bare sketches with
// per-site identifier salts for RW), refreshed by delta rounds while the
// window slides 3W, answers every point query, F₂ and ‖a_r‖₁ within one
// merge level's bound (core.MergedPointErrorBound) of the exact oracle over
// the union stream. The keys are skewed (Zipf 1.5) so that the hot key's
// cells take most of every site's arrivals: RW sites sharing one salt would
// draw equal identifiers for their k-th arrivals there, and the union would
// count them once — ‖a_r‖₁ off by 0.14 and the hot key's estimate by more
// than the bound, where at Zipf 1.1 a shared salt stayed inside it.
func TestCoordinatorOverStripedSitesAccuracy(t *testing.T) {
	const W = 2048
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			h := difftest.New(t, ecmsketch.Params{Epsilon: 0.05, Delta: 0.1, WindowLength: W, Seed: 5,
				Algorithm: algo, UpperBound: 1 << 16})
			co := h.Coord(difftest.Local, shardedSites(h, 3, 4)...)
			h.Bounded(co)
			h.Run(difftest.Gen(int64(algo)+1, difftest.Shape{Window: W, Events: 4 * 3 * W, Ticks: 3 * W, Sites: 3,
				Keys: 2048, Zipf: 1.5, Batch: 64, Pulls: 12, Checks: 3}))
			if n := co.Coordinator().FullPulls(); n != 3 {
				t.Errorf("%d full pulls, want one per site", n)
			}
			t.Run("total", func(t *testing.T) { h.Totals(t, co) })
		})
	}
}
