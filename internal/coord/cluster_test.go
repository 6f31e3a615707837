package coord

import (
	"math"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
	"ecmsketch/internal/workload"
)

func clusterParams() core.Params {
	return core.Params{
		Epsilon:      0.1,
		Delta:        0.1,
		WindowLength: 50000,
		Seed:         99,
	}
}

func clusterEvents(t *testing.T, n, sites int) []workload.Event {
	t.Helper()
	g, err := workload.NewGenerator(workload.Config{
		Events: n, Duration: 40000, KeyDomain: 2000, Skew: 1.0,
		Sites: sites, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Drain()
}

// centralizedBaseline builds a single sketch over the same events, the
// centralized reference the distributed error is compared against (Table 4).
func centralizedBaseline(p core.Params, events []workload.Event) (*core.Sketch, error) {
	s, err := core.New(p)
	if err != nil {
		return nil, err
	}
	var now core.Tick
	for _, ev := range events {
		s.Add(ev.Key, ev.Time)
		if ev.Time > now {
			now = ev.Time
		}
	}
	s.Advance(now)
	return s, nil
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(clusterParams(), 0); err == nil {
		t.Error("0 sites accepted")
	}
	bad := clusterParams()
	bad.Epsilon = 0
	if _, err := NewCluster(bad, 2); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestClusterIngestAndAggregate(t *testing.T) {
	events := clusterEvents(t, 20000, 8)
	cluster, err := NewCluster(clusterParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	now := cluster.IngestAll(events)
	oracle := workload.NewOracle(50000)
	for _, ev := range events {
		oracle.AddEvent(ev)
	}
	root, height, err := cluster.AggregateTree()
	if err != nil {
		t.Fatalf("AggregateTree: %v", err)
	}
	if height != 3 {
		t.Errorf("tree height = %d, want 3 for 8 sites", height)
	}
	if root.Now() != now {
		t.Errorf("root Now = %d, want %d", root.Now(), now)
	}
	// Root estimates within the hierarchical bound of the union truth.
	bound := core.HierarchicalPointErrorBound(root.EffectiveSplit(), height)
	l1 := float64(oracle.Total(50000))
	for k := uint64(0); k < 100; k++ {
		got := root.Estimate(k, 50000)
		want := float64(oracle.Freq(k, 50000))
		if math.Abs(got-want) > bound*l1+1 {
			t.Errorf("root Estimate(%d)=%v true=%v bound=%v", k, got, want, bound*l1)
		}
	}
	// Total mass is preserved by order-preserving aggregation.
	if root.Count() != uint64(len(events)) {
		t.Errorf("root Count = %d, want %d", root.Count(), len(events))
	}
}

func TestNetworkAccounting(t *testing.T) {
	events := clusterEvents(t, 5000, 4)
	cluster, err := NewCluster(clusterParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster.IngestAll(events)
	if cluster.Network().Bytes() != 0 {
		t.Error("network charged before aggregation")
	}
	if _, _, err := cluster.AggregateTree(); err != nil {
		t.Fatal(err)
	}
	// 4 leaves → 2 merges at level 0 (4 transfers) + 1 merge at level 1
	// (2 transfers) = 6 messages.
	if got := cluster.Network().Messages(); got != 6 {
		t.Errorf("messages = %d, want 6", got)
	}
	if cluster.Network().Bytes() <= 0 {
		t.Error("no bytes charged")
	}
}

func TestOddSiteCount(t *testing.T) {
	events := clusterEvents(t, 6000, 5)
	cluster, err := NewCluster(clusterParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cluster.IngestAll(events)
	root, height, err := cluster.AggregateTree()
	if err != nil {
		t.Fatal(err)
	}
	if height != 3 {
		t.Errorf("height = %d, want 3 for 5 sites", height)
	}
	if root.Count() != uint64(len(events)) {
		t.Errorf("root Count = %d, want %d", root.Count(), len(events))
	}
}

func TestSingleSiteAggregation(t *testing.T) {
	events := clusterEvents(t, 3000, 1)
	cluster, err := NewCluster(clusterParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster.IngestAll(events)
	root, height, err := cluster.AggregateTree()
	if err != nil {
		t.Fatal(err)
	}
	if height != 0 {
		t.Errorf("height = %d, want 0", height)
	}
	if cluster.Network().Bytes() != 0 {
		t.Error("single site charged network bytes")
	}
	if root.Count() != uint64(len(events)) {
		t.Error("root is not the site sketch")
	}
}

func TestDistributedVsCentralized(t *testing.T) {
	// Table 4's structure: distributed aggregation loses little accuracy
	// compared to a centralized sketch over the same stream.
	events := clusterEvents(t, 30000, 16)
	p := clusterParams()
	cluster, err := NewCluster(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	cluster.IngestAll(events)
	root, _, err := cluster.AggregateTree()
	if err != nil {
		t.Fatal(err)
	}
	central, err := centralizedBaseline(p, events)
	if err != nil {
		t.Fatal(err)
	}
	oracle := workload.NewOracle(p.WindowLength)
	for _, ev := range events {
		oracle.AddEvent(ev)
	}
	l1 := float64(oracle.Total(p.WindowLength))
	var errC, errD float64
	n := 0
	for k := uint64(0); k < 200; k++ {
		want := float64(oracle.Freq(k, p.WindowLength))
		errC += math.Abs(central.Estimate(k, p.WindowLength)-want) / l1
		errD += math.Abs(root.Estimate(k, p.WindowLength)-want) / l1
		n++
	}
	errC /= float64(n)
	errD /= float64(n)
	t.Logf("centralized=%.5f distributed=%.5f ratio=%.3f", errC, errD, errD/math.Max(errC, 1e-12))
	// Distributed error can exceed centralized, but must stay far below the
	// analytic worst case (paper: ratio ≈ 1.0–1.25 observed vs 3× bound).
	if errD > 3*errC+0.01 {
		t.Errorf("distributed error %.5f vastly exceeds centralized %.5f", errD, errC)
	}
}

func TestRWClusterLosslessAndCostly(t *testing.T) {
	// Fig. 5's structure: RW aggregation is lossless but ships an order of
	// magnitude more bytes than EH.
	p := clusterParams()
	p.Epsilon = 0.2
	p.UpperBound = 50000
	events := clusterEvents(t, 10000, 4)

	eh, err := NewCluster(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	eh.IngestAll(events)
	if _, _, err := eh.AggregateTree(); err != nil {
		t.Fatal(err)
	}

	prw := p
	prw.Algorithm = window.AlgoRW
	rw, err := NewCluster(prw, 4)
	if err != nil {
		t.Fatal(err)
	}
	rw.IngestAll(events)
	if _, _, err := rw.AggregateTree(); err != nil {
		t.Fatal(err)
	}
	ehB, rwB := eh.Network().Bytes(), rw.Network().Bytes()
	if rwB < 5*ehB {
		t.Errorf("RW transferred %d bytes vs EH %d; expected ≥5× gap", rwB, ehB)
	}
}

func TestDWClusterAggregates(t *testing.T) {
	// Deterministic-wave sketches also merge through the tree (Section 5.1
	// "Deterministic Waves"); the paper excludes them from its distributed
	// plots only because they offer no advantage over EH.
	p := clusterParams()
	p.Algorithm = window.AlgoDW
	p.UpperBound = 20000
	events := clusterEvents(t, 12000, 4)
	cluster, err := NewCluster(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster.IngestAll(events)
	root, height, err := cluster.AggregateTree()
	if err != nil {
		t.Fatalf("AggregateTree(DW): %v", err)
	}
	if height != 2 {
		t.Errorf("height = %d", height)
	}
	oracle := workload.NewOracle(p.WindowLength)
	for _, ev := range events {
		oracle.AddEvent(ev)
	}
	l1 := float64(oracle.Total(p.WindowLength))
	bound := core.HierarchicalPointErrorBound(root.EffectiveSplit(), height)
	for k := uint64(0); k < 50; k++ {
		got := root.Estimate(k, p.WindowLength)
		want := float64(oracle.Freq(k, p.WindowLength))
		if math.Abs(got-want) > bound*l1+1 {
			t.Errorf("DW root Estimate(%d)=%v true=%v", k, got, want)
		}
	}
}

func TestClusterReuseAfterWait(t *testing.T) {
	// A cluster can ingest several streams: IngestAll calls compose.
	p := clusterParams()
	cluster, err := NewCluster(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch1 := clusterEvents(t, 2000, 2)
	batch2 := clusterEvents(t, 2000, 2)
	cluster.IngestAll(batch1)
	cluster.IngestAll(batch2)
	var total uint64
	for _, s := range cluster.Sites() {
		total += s.Count()
	}
	if total != 4000 {
		t.Errorf("sites hold %d events, want 4000", total)
	}
}

func TestCentralizedBaselineMatchesSingleSite(t *testing.T) {
	p := clusterParams()
	events := clusterEvents(t, 5000, 1)
	central, err := centralizedBaseline(p, events)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster.IngestAll(events)
	site := cluster.Sites()[0]
	for k := uint64(0); k < 100; k++ {
		if a, b := central.Estimate(k, p.WindowLength), site.Estimate(k, p.WindowLength); a != b {
			t.Fatalf("Estimate(%d): central=%v site=%v", k, a, b)
		}
	}
}

func TestRWClusterSaltsDistinct(t *testing.T) {
	// Randomized-wave sites must not share identifier salts, or merged
	// union counts would collapse duplicates that are distinct events.
	p := clusterParams()
	p.Algorithm = window.AlgoRW
	p.Epsilon = 0.25
	p.UpperBound = 10000
	cluster, err := NewCluster(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every site sees the same key at the same ticks: a salt collision
	// would make merged estimates ≈ one site's worth instead of three.
	events := make([]workload.Event, 900)
	for i := range events {
		events[i] = workload.Event{Key: 5, Time: core.Tick(i/3 + 1), Site: i % 3}
	}
	if now := cluster.IngestAll(events); now != 300 {
		t.Fatalf("IngestAll returned tick %d, want 300", now)
	}
	root, _, err := cluster.AggregateTree()
	if err != nil {
		t.Fatal(err)
	}
	got := root.Estimate(5, p.WindowLength)
	if got < 600 {
		t.Errorf("merged RW estimate %v, want ≈900 (salt collision collapses to ≈300)", got)
	}
}

// TestTreeHeight: n sites aggregate over a tree of height ⌈log₂ n⌉, odd nodes
// promoted, whatever n is.
func TestTreeHeight(t *testing.T) {
	p := clusterParams()
	p.Epsilon = 0.5
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 33: 6} {
		cluster, err := NewCluster(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := cluster.AggregateTree(); err != nil || got != want {
			t.Errorf("%d sites: height %d, %v; want %d", n, got, err, want)
		}
	}
}
