package ecmsketch

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ecmsketch/internal/standing"
	"ecmsketch/internal/workload"
)

// The standing-query evaluator is incremental: it re-checks only the
// predicates whose Count-Min cells intersect the batch's touched set (plus
// the advance-sensitive ones on clock moves). These tests pin its
// correctness against a brute-force oracle that re-evaluates every
// predicate against the same engine at every batch boundary: the fired
// crossings — kind, key, edge direction, value, clock — must be identical,
// on both the Sharded ingest path and the coordinator delta-apply path,
// for both deterministic engines.
//
// Prev on threshold firings is deliberately not compared: it reports the
// value at the predicate's previous *evaluation*, and skipping no-op
// evaluations is exactly what incrementality is allowed to do.

// equivFiring is one oracle-predicted (or registry-observed) crossing in a
// canonical comparable form.
type equivFiring struct {
	q      int // query index in registration order
	kind   StandingKind
	key    uint64
	rising bool
	value  float64
	now    Tick
	top    string
	inOut  string
}

func (f equivFiring) String() string {
	return fmt.Sprintf("q%d %v key=%d rising=%v value=%g now=%d top=%s inout=%s",
		f.q, f.kind, f.key, f.rising, f.value, f.now, f.top, f.inOut)
}

// equivOracle brute-force re-evaluates every query at every boundary,
// mirroring the registry's predicate semantics (edge detection, tie-breaks,
// membership-vs-rank rules) but none of its skipping.
type equivOracle struct {
	window  Tick
	queries []StandingQuery
	high    []bool
	members [][]NotificationItem
}

func newEquivOracle(window Tick, queries []StandingQuery) *equivOracle {
	return &equivOracle{
		window:  window,
		queries: queries,
		high:    make([]bool, len(queries)),
		members: make([][]NotificationItem, len(queries)),
	}
}

func (o *equivOracle) rangeOf(q StandingQuery, now Tick) Tick {
	rng := q.Range
	if rng == 0 {
		rng = o.window
	}
	if rng == 0 {
		rng = now
	}
	return rng
}

func (o *equivOracle) eval(t interface {
	Estimate(key uint64, r Tick) float64
	Now() Tick
}) []equivFiring {
	now := t.Now()
	var fired []equivFiring
	for i, q := range o.queries {
		rng := o.rangeOf(q, now)
		switch q.Kind {
		case StandingThreshold:
			cur := t.Estimate(q.Key, rng)
			high := cur >= q.Value
			if high != o.high[i] && high != q.Below {
				fired = append(fired, equivFiring{
					q: i, kind: q.Kind, key: q.Key, rising: high, value: cur, now: now,
				})
			}
			o.high[i] = high
		case StandingTopK:
			scored := make([]NotificationItem, 0, len(q.Keys))
			for _, k := range q.Keys {
				scored = append(scored, NotificationItem{Key: k, Estimate: t.Estimate(k, rng)})
			}
			sort.Slice(scored, func(a, b int) bool {
				if scored[a].Estimate != scored[b].Estimate {
					return scored[a].Estimate > scored[b].Estimate
				}
				return scored[a].Key < scored[b].Key
			})
			n := q.K
			if n > len(scored) {
				n = len(scored)
			}
			members := make([]NotificationItem, 0, n)
			for _, it := range scored[:n] {
				if it.Estimate > 0 {
					members = append(members, it)
				}
			}
			prevM := o.members[i]
			fire := len(members) != len(prevM)
			if !fire {
				for j := range members {
					if members[j].Key != prevM[j].Key {
						fire = true
						break
					}
				}
				if fire && !q.RankChanges {
					in := make(map[uint64]bool, len(members))
					for _, it := range members {
						in[it.Key] = true
					}
					same := true
					for _, it := range prevM {
						if !in[it.Key] {
							same = false
							break
						}
					}
					fire = !same
				}
			}
			if fire {
				fired = append(fired, equivFiring{
					q: i, kind: q.Kind, now: now,
					top:   topString(members),
					inOut: inOutString(members, prevM),
				})
			}
			o.members[i] = members
		}
	}
	return fired
}

func topString(items []NotificationItem) string {
	s := ""
	for _, it := range items {
		s += fmt.Sprintf("%d:%g ", it.Key, it.Estimate)
	}
	return s
}

func inOutString(cur, prev []NotificationItem) string {
	was := make(map[uint64]bool, len(prev))
	for _, it := range prev {
		was[it.Key] = true
	}
	is := make(map[uint64]bool, len(cur))
	var entered, left []uint64
	for _, it := range cur {
		is[it.Key] = true
		if !was[it.Key] {
			entered = append(entered, it.Key)
		}
	}
	for _, it := range prev {
		if !is[it.Key] {
			left = append(left, it.Key)
		}
	}
	sort.Slice(entered, func(i, j int) bool { return entered[i] < entered[j] })
	sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
	return fmt.Sprintf("+%v -%v", entered, left)
}

// toEquivFiring canonicalizes a registry notification for comparison.
// queryIdx maps registry query IDs back to registration order.
func toEquivFiring(n Notification, queryIdx map[uint64]int) equivFiring {
	f := equivFiring{
		q:      queryIdx[n.Query],
		kind:   n.Kind,
		key:    n.Key,
		rising: n.Rising,
		value:  n.Value,
		now:    n.Now,
	}
	if n.Kind == StandingTopK {
		f.top = topString(n.Top)
		f.inOut = fmt.Sprintf("+%v -%v", n.Entered, n.Left)
	}
	return f
}

func compareFirings(t *testing.T, label string, want, got []equivFiring) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: firing %d diverged:\n  oracle      %s\n  incremental %s", label, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		extra, whose := want[n:], "oracle only"
		if len(got) > len(want) {
			extra, whose = got[n:], "incremental only"
		}
		t.Fatalf("%s: oracle fired %d, incremental fired %d; first %s: %s",
			label, len(want), len(got), whose, extra[0])
	}
}

// equivQueries is the predicate mix under test: thresholds both ways and
// top-k with and without rank sensitivity, all over a tiny
// key domain on a deliberately coarse sketch so Count-Min collisions are
// common — collision-induced crossings are exactly what cell-granular
// (rather than key-granular) invalidation must catch.
func equivQueries() []StandingQuery {
	return []StandingQuery{
		{Kind: StandingThreshold, Key: 3, Value: 40},
		{Kind: StandingThreshold, Key: 5, Value: 15},
		{Kind: StandingThreshold, Key: 9, Value: 25, Below: true},
		{Kind: StandingTopK, K: 3, Keys: []uint64{1, 2, 3, 4, 5, 6}},
		{Kind: StandingTopK, K: 2, Keys: []uint64{7, 8, 9}, RankChanges: true},
	}
}

func equivParams(algo Algorithm) Params {
	p := Params{Epsilon: 0.25, Delta: 0.25, WindowLength: 1000, Seed: 11, Algorithm: algo}
	if algo == AlgoDW {
		p.UpperBound = 1 << 16
	}
	return p
}

// collectRegistry subscribes the queries and returns the watcher plus the
// replayed initial firings and the ID→index map.
func collectRegistry(t *testing.T, reg *StandingRegistry, queries []StandingQuery) (*StandingWatcher, []Notification, map[uint64]int) {
	t.Helper()
	info, err := reg.Subscribe(queries)
	if err != nil {
		t.Fatal(err)
	}
	w, missed, _, err := reg.Attach(info.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[uint64]int, len(info.Queries))
	for i, id := range info.Queries {
		idx[id] = i
	}
	return w, missed, idx
}

func drainWatcher(w *StandingWatcher) []Notification {
	var out []Notification
	for {
		select {
		case n, ok := <-w.C:
			if !ok {
				return out
			}
			out = append(out, n)
		default:
			return out
		}
	}
}

// TestStandingOracleEquivalenceIngest drives a Sharded engine with a
// deterministic workload and checks the incremental evaluator's firings
// against the brute-force oracle at every batch boundary.
func TestStandingOracleEquivalenceIngest(t *testing.T) {
	for _, algo := range []Algorithm{AlgoEH, AlgoDW} {
		t.Run(algo.String(), func(t *testing.T) {
			eng, err := NewSharded(ShardedConfig{Params: equivParams(algo), Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			queries := equivQueries()
			reg := NewStandingRegistry(StandingConfig{})
			reg.SetLimits(16384, 16384)
			reg.Bind(eng)
			eng.SetNotifier(reg)
			defer eng.SetNotifier(nil)

			oracle := newEquivOracle(1000, queries)
			w, missed, queryIdx := collectRegistry(t, reg, queries)
			// Subscribe ran the initial evaluation; the oracle's first pass
			// covers the same (empty-engine) boundary.
			want := oracle.eval(eng)

			rng := rand.New(rand.NewSource(42))
			tick := Tick(1)
			for round := 0; round < 300; round++ {
				if round%9 == 4 {
					tick += Tick(50 + rng.Intn(400))
					eng.Advance(tick)
				} else {
					evs := make([]Event, 1+rng.Intn(6))
					for i := range evs {
						if rng.Intn(4) == 0 {
							tick++
						}
						evs[i] = Event{
							Key:  uint64(1 + rng.Intn(12)),
							Tick: tick,
							N:    uint64(1 + rng.Intn(8)),
						}
					}
					eng.AddBatch(evs)
				}
				want = append(want, oracle.eval(eng)...)
			}

			notifs := append(missed, drainWatcher(w)...)
			got := make([]equivFiring, len(notifs))
			for i, n := range notifs {
				got[i] = toEquivFiring(n, queryIdx)
			}
			if len(want) < 10 {
				t.Fatalf("workload too quiet: only %d oracle firings — the test is not exercising the evaluator", len(want))
			}
			compareFirings(t, algo.String(), want, got)
		})
	}
}

// TestStandingOracleEquivalenceCoordinator runs the same check on the other
// evaluation surface: two engines behind a coordinator, the
// registry refreshed with each merged root plus the pull's changed-cell
// set, the oracle brute-forcing every predicate against the same root.
func TestStandingOracleEquivalenceCoordinator(t *testing.T) {
	for _, algo := range []Algorithm{AlgoEH, AlgoDW} {
		t.Run(algo.String(), func(t *testing.T) {
			var engines [2]*Sharded
			var sites []Site
			for i := range engines {
				eng, err := NewSharded(ShardedConfig{Params: equivParams(algo), Shards: 2})
				if err != nil {
					t.Fatal(err)
				}
				engines[i] = eng
				sites = append(sites, NewLocalSite(fmt.Sprintf("site-%d", i), eng))
			}
			co := NewCoordinator(sites...)

			queries := equivQueries()
			// Coordinator surface: explicit keys required, target bound per
			// refresh rather than up front.
			reg := NewStandingRegistry(StandingConfig{RequireKeys: true})
			reg.SetLimits(16384, 16384)
			oracle := newEquivOracle(1000, queries)
			w, missed, queryIdx := collectRegistry(t, reg, queries)
			if len(missed) != 0 {
				t.Fatalf("unbound registry fired at subscribe: %+v", missed)
			}
			var want []equivFiring

			rng := rand.New(rand.NewSource(43))
			tick := Tick(1)
			for round := 0; round < 120; round++ {
				// Mutate one or both sites, sometimes neither (pull-only round:
				// the delta is empty and nothing may fire).
				for e := range engines {
					switch rng.Intn(3) {
					case 0:
					case 1:
						evs := make([]Event, 1+rng.Intn(5))
						for i := range evs {
							if rng.Intn(4) == 0 {
								tick++
							}
							evs[i] = Event{Key: uint64(1 + rng.Intn(12)), Tick: tick, N: uint64(1 + rng.Intn(8))}
						}
						engines[e].AddBatch(evs)
					case 2:
						tick += Tick(30 + rng.Intn(250))
						engines[e].Advance(tick)
					}
				}
				if err := co.Refresh(); err != nil {
					t.Fatal(err)
				}
				root, err := co.View()
				if err != nil {
					t.Fatal(err)
				}
				cells, all := co.TakeChangedCells()
				reg.RefreshTarget(root, cells, all)
				want = append(want, oracle.eval(root)...)
			}
			if fp, dp := co.FullPulls(), co.DeltaPulls(); dp == 0 {
				t.Fatalf("delta path not exercised: %d full pulls, %d delta pulls", fp, dp)
			}

			notifs := drainWatcher(w)
			got := make([]equivFiring, len(notifs))
			for i, n := range notifs {
				got[i] = toEquivFiring(n, queryIdx)
			}
			if len(want) < 10 {
				t.Fatalf("workload too quiet: only %d oracle firings", len(want))
			}
			compareFirings(t, algo.String(), want, got)
		})
	}
}

// learnedTopK feeds events into a 4-stripe Sharded engine in batches of 100
// with a registry bound as its notifier, holding one learned top-k query (no
// watchlist), and returns the engine and the membership of the last
// notification — the query's current top-k.
func learnedTopK(t *testing.T, k int, events []Event) (*Sharded, []NotificationItem) {
	t.Helper()
	p := Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 3}
	eng, err := NewSharded(ShardedConfig{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewStandingRegistry(StandingConfig{})
	reg.Bind(eng)
	eng.SetNotifier(reg)
	t.Cleanup(func() { eng.SetNotifier(nil) })
	w, _, _ := collectRegistry(t, reg, []StandingQuery{{Kind: StandingTopK, K: k}})
	var top []NotificationItem
	for len(events) > 0 {
		n := min(100, len(events))
		eng.AddBatch(events[:n])
		events = events[n:]
		for _, note := range drainWatcher(w) {
			top = note.Top
		}
	}
	return eng, top
}

// TestLearnedTopKBasicRanking: a learned top-3 over five keys of distinct
// frequencies ranks the three heaviest in order, with near-exact estimates,
// and the stream is ingested once — the registry keeps no second sketch.
func TestLearnedTopKBasicRanking(t *testing.T) {
	var events []Event
	var now Tick
	for _, kc := range []struct{ key, n uint64 }{{1, 500}, {2, 300}, {3, 200}, {4, 50}, {5, 10}} {
		for i := uint64(0); i < kc.n; i++ {
			now++
			events = append(events, Event{Key: kc.key, Tick: now})
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
	events := make([]Event, 30000)
	for i := range events {
		events[i] = Event{Key: zipf.Uint64(), Tick: Tick(i + 1)}
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

// Silence the unused-import guard if the standing alias set shrinks.
var _ = standing.KindThreshold
