package ecmsketch_test

import (
	"math/rand"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/difftest"
	"ecmsketch/internal/workload"
)

// The standing-query evaluator is incremental: it re-checks only the
// predicates whose Count-Min cells intersect the batch's touched set (plus
// the advance-sensitive ones on clock moves). The harness's standing door
// pins it against a brute-force re-evaluation of every predicate at every
// boundary, on the Sharded ingest path and on the coordinator's
// delta-apply path, for both deterministic synopses.

// standingQueries is the predicate mix under test: thresholds both ways
// and top-k with and without rank sensitivity, over a tiny key domain on a
// deliberately coarse sketch so Count-Min collisions are common —
// collision-induced crossings are what cell-granular (rather than
// key-granular) invalidation must catch.
var standingQueries = []ecmsketch.StandingQuery{
	{Kind: ecmsketch.StandingThreshold, Key: 3, Value: 40},
	{Kind: ecmsketch.StandingThreshold, Key: 5, Value: 15},
	{Kind: ecmsketch.StandingThreshold, Key: 9, Value: 25, Below: true},
	{Kind: ecmsketch.StandingTopK, K: 3, Keys: []uint64{1, 2, 3, 4, 5, 6}},
	{Kind: ecmsketch.StandingTopK, K: 2, Keys: []uint64{7, 8, 9}, RankChanges: true},
}

// standingRun replays a write-rule log over sites engines of stripes each
// — behind a coordinator when sites > 1 — and requires the registry's
// firings to be the brute-force oracle's.
func standingRun(t *testing.T, algo ecmsketch.Algorithm, sites, stripes int) {
	h := difftest.New(t, ecmsketch.Params{Epsilon: 0.25, Delta: 0.25, WindowLength: 1000, Seed: 11,
		Algorithm: algo, UpperBound: 1 << 16})
	var engines []*difftest.Door
	for i := 0; i < sites; i++ {
		engines = append(engines, h.Sharded(i, ecmsketch.ShardedConfig{Shards: stripes}, difftest.Batches))
	}
	target := engines[0]
	if sites > 1 {
		target = h.Coord(difftest.Local, engines...)
	}
	st := h.Standing(target, standingQueries)
	h.Run(difftest.Gen(42, difftest.Shape{Window: 1000, Events: 1200, Ticks: 2400, Sites: sites, Keys: 13,
		Batch: 6, Pulls: 120, Checks: 4, Rules: true}))
	if st.Fired() < 10 {
		t.Fatalf("workload too quiet: only %d firings — the test is not exercising the evaluator", st.Fired())
	}
}

// TestStandingOracleEquivalenceIngest runs the check on a 4-stripe engine.
func TestStandingOracleEquivalenceIngest(t *testing.T) {
	for _, algo := range []ecmsketch.Algorithm{AlgoEH, AlgoDW} {
		t.Run(algo.String(), func(t *testing.T) { standingRun(t, algo, 1, 4) })
	}
}

// TestStandingOracleEquivalenceCoordinator runs it on the other evaluation
// surface: two engines behind a coordinator, the registry refreshed with
// each merged root plus the pull's changed-cell set.
func TestStandingOracleEquivalenceCoordinator(t *testing.T) {
	for _, algo := range []ecmsketch.Algorithm{AlgoEH, AlgoDW} {
		t.Run(algo.String(), func(t *testing.T) { standingRun(t, algo, 2, 2) })
	}
}

// learnedTopK feeds events into a 4-stripe Sharded engine in batches of 100
// with a registry bound as its notifier, holding one learned top-k query (no
// watchlist), and returns the engine and the membership of the last
// notification — the query's current top-k.
func learnedTopK(t *testing.T, k int, events []ecmsketch.Event) (*ecmsketch.Sharded, []ecmsketch.NotificationItem) {
	t.Helper()
	p := ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 3}
	eng, err := NewSharded(ShardedConfig{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{})
	reg.Bind(eng)
	eng.SetNotifier(reg)
	t.Cleanup(func() { eng.SetNotifier(nil) })
	w, _, _ := difftest.Watch(t, reg, []ecmsketch.StandingQuery{{Kind: ecmsketch.StandingTopK, K: k}})
	var top []ecmsketch.NotificationItem
	for len(events) > 0 {
		n := min(100, len(events))
		eng.AddBatch(events[:n])
		events = events[n:]
		for _, note := range difftest.Drain(w) {
			top = note.Top
		}
	}
	return eng, top
}

// TestLearnedTopKBasicRanking: a learned top-3 over five keys of distinct
// frequencies ranks the three heaviest in order, with near-exact estimates,
// and the stream is ingested once — the registry keeps no second sketch.
func TestLearnedTopKBasicRanking(t *testing.T) {
	var events []ecmsketch.Event
	var now ecmsketch.Tick
	for _, kc := range []struct{ key, n uint64 }{{1, 500}, {2, 300}, {3, 200}, {4, 50}, {5, 10}} {
		for i := uint64(0); i < kc.n; i++ {
			now++
			events = append(events, ecmsketch.Event{Key: kc.key, Tick: now})
		}
	}
	eng, top := learnedTopK(t, 3, events)
	if got := eng.Count(); got != uint64(len(events)) {
		t.Errorf("engine ingested %d arrivals, want exactly %d", got, len(events))
	}
	if len(top) != 3 || top[0].Key != 1 || top[1].Key != 2 || top[2].Key != 3 {
		t.Fatalf("top = %+v, want keys 1, 2, 3", top)
	}
	if top[0].Estimate < 450 {
		t.Errorf("rank 1 estimate %v, want ≈500", top[0].Estimate)
	}
}

// TestLearnedTopKZipfAgainstOracle: over a Zipf(1.3) stream the learned
// top-10 holds at least 4 of the exact top 5.
func TestLearnedTopKZipfAgainstOracle(t *testing.T) {
	oracle := workload.NewOracle(10000)
	rng := rand.New(rand.NewSource(8))
	zipf := rand.NewZipf(rng, 1.3, 1, 5000)
	events := make([]ecmsketch.Event, 30000)
	for i := range events {
		events[i] = ecmsketch.Event{Key: zipf.Uint64(), Tick: ecmsketch.Tick(i + 1)}
		oracle.Add(events[i].Key, events[i].Tick)
	}
	_, top := learnedTopK(t, 10, events)
	truth := oracle.HeavyHitters(0.01, 10000)[:5]
	found := 0
	for _, ev := range truth {
		for _, it := range top {
			if it.Key == ev.Key {
				found++
				break
			}
		}
	}
	if found < 4 {
		t.Errorf("learned top-10 holds %d of the exact top 5 %v (top=%+v)", found, truth, top)
	}
}
