package experiments

import (
	"math"
	"strings"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// smallWC is a shared scaled-down dataset for experiment tests.
func smallWC(t testing.TB) Dataset {
	t.Helper()
	ds, err := LoadWC98(25000)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallSNMP(t testing.TB) Dataset {
	t.Helper()
	ds, err := LoadSNMP(25000)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetsLoad(t *testing.T) {
	wc := smallWC(t)
	if len(wc.Events) != 25000 || wc.Sites != 33 {
		t.Errorf("wc98: %d events, %d sites", len(wc.Events), wc.Sites)
	}
	sn := smallSNMP(t)
	if len(sn.Events) != 25000 || sn.Sites != 535 {
		t.Errorf("snmp: %d events, %d sites", len(sn.Events), sn.Sites)
	}
	rs := wc.QueryRanges()
	if len(rs) == 0 || rs[len(rs)-1] != wc.Window {
		t.Errorf("QueryRanges = %v, want trailing window", rs)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Error("query ranges not increasing")
		}
	}
}

func TestRunCentralizedShape(t *testing.T) {
	ds := smallWC(t)
	cfg := CentralizedConfig{
		Epsilons:     []float64{0.1, 0.25},
		Delta:        0.1,
		Algorithms:   []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW},
		MaxPointKeys: 200,
		SkipRWBelow:  0.10,
	}
	rows, err := RunCentralized(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]CentralizedRow{}
	for _, r := range rows {
		if r.Skipped {
			continue
		}
		byKey[string(AlgoLabel(r.Algo))+"/"+r.Query.String()+"/"+formatEps(r.Eps)] = r
		// The headline claim: observed error below the configured ε.
		if r.AvgErr > r.Eps {
			t.Errorf("%v %v ε=%v: avg error %v exceeds ε", r.Algo, r.Query, r.Eps, r.AvgErr)
		}
		if r.MaxErr > r.Eps*1.2+0.01 {
			t.Errorf("%v %v ε=%v: max error %v far exceeds ε", r.Algo, r.Query, r.Eps, r.MaxErr)
		}
		if r.Memory <= 0 || r.Queries <= 0 {
			t.Errorf("%v: degenerate row %+v", r.Algo, r)
		}
	}
	// Memory ordering at equal ε: RW ≫ DW ≥ EH (Fig. 4's headline).
	eh := byKey["ECM-EH/point/0.10"]
	dw := byKey["ECM-DW/point/0.10"]
	rw := byKey["ECM-RW/point/0.10"]
	if !(rw.Memory > 5*eh.Memory) {
		t.Errorf("RW memory %d not ≫ EH %d", rw.Memory, eh.Memory)
	}
	if !(dw.Memory >= eh.Memory) {
		t.Errorf("DW memory %d < EH %d", dw.Memory, eh.Memory)
	}
	// Smaller ε costs more memory.
	eh25 := byKey["ECM-EH/point/0.25"]
	if !(eh.Memory > eh25.Memory) {
		t.Errorf("EH memory at ε=0.1 (%d) not above ε=0.25 (%d)", eh.Memory, eh25.Memory)
	}
}

func formatEps(e float64) string {
	switch {
	case math.Abs(e-0.10) < 1e-9:
		return "0.10"
	case math.Abs(e-0.25) < 1e-9:
		return "0.25"
	default:
		return "other"
	}
}

func TestRunUpdateRates(t *testing.T) {
	ds := SubsetEvents(smallWC(t), 10000)
	rows, err := RunUpdateRates(ds, 0.1, 0.1, []window.Algorithm{window.AlgoEH, window.AlgoRW})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.UpdatesPerSec <= 0 {
			t.Errorf("%v: non-positive rate", r.Algo)
		}
	}
	// EH must ingest faster than RW (Table 3's ordering).
	if rows[0].UpdatesPerSec < rows[1].UpdatesPerSec {
		t.Errorf("EH rate %v below RW rate %v", rows[0].UpdatesPerSec, rows[1].UpdatesPerSec)
	}
}

func TestRunDistributedShape(t *testing.T) {
	ds := smallWC(t)
	cfg := DistributedConfig{
		Epsilons:     []float64{0.1},
		Delta:        0.1,
		MaxPointKeys: 150,
		SkipRWBelow:  0.1,
	}
	rows, err := RunDistributed(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ehPoint, rwPoint *DistributedRow
	for i := range rows {
		r := &rows[i]
		if r.Skipped {
			continue
		}
		if r.Algo == window.AlgoEH && r.Query == core.PointQuery {
			ehPoint = r
		}
		if r.Algo == window.AlgoRW && r.Query == core.PointQuery {
			rwPoint = r
		}
		if r.Transfer <= 0 {
			t.Errorf("%+v: no transfer recorded", *r)
		}
	}
	if ehPoint == nil || rwPoint == nil {
		t.Fatal("missing EH or RW point rows")
	}
	// Fig. 5's headline: RW network cost ≥ an order of magnitude above EH.
	if rwPoint.Transfer < 5*ehPoint.Transfer {
		t.Errorf("RW transfer %d not ≫ EH %d", rwPoint.Transfer, ehPoint.Transfer)
	}
	// Aggregated error still below ε.
	if ehPoint.AvgErr > 0.1 {
		t.Errorf("distributed EH avg error %v exceeds ε", ehPoint.AvgErr)
	}
}

func TestRunCentralizedVsDistributed(t *testing.T) {
	ds := SubsetEvents(smallWC(t), 15000)
	rows, err := RunCentralizedVsDistributed(ds, []float64{0.2}, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		// Table 4: modest inflation (paper observes ≤1.25; we allow slack
		// for the small stream).
		if r.Ratio > 3 {
			t.Errorf("%v %v: ratio %v too large", r.Algo, r.Query, r.Ratio)
		}
	}
}

func TestRunScaling(t *testing.T) {
	ds := SubsetEvents(smallSNMP(t), 15000)
	rows, err := RunScaling(ds, 0.1, 0.1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// nodes ∈ {1,2,4} × 3 specs = 9 rows.
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	// Transfer grows with node count for EH point rows.
	var t1, t4 int64
	for _, r := range rows {
		if r.Algo == window.AlgoEH && r.Query == core.PointQuery {
			switch r.Nodes {
			case 1:
				t1 = r.Transfer
			case 4:
				t4 = r.Transfer
			}
		}
	}
	if t4 <= t1 {
		t.Errorf("transfer at 4 nodes (%d) not above 1 node (%d)", t4, t1)
	}
}

func TestRunComplexity(t *testing.T) {
	rows, err := RunComplexity([]float64{0.1, 0.2}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	mem := map[string]int{}
	for _, r := range rows {
		if r.MemoryBytes <= 0 || r.NsPerUpdate <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		mem[r.Algo.String()+formatEps(r.Eps)] = r.MemoryBytes
	}
	// RW quadratic vs EH linear in 1/ε: the RW/EH memory gap widens as ε
	// shrinks.
	gap01 := float64(mem["RW0.10"]) / float64(mem["EH0.10"])
	gap02 := float64(mem["RW"+"other"]) / float64(mem["EH"+"other"])
	if gap01 <= gap02 {
		t.Errorf("RW/EH memory gap did not widen: %.1f (ε=0.1) vs %.1f (ε=0.2)", gap01, gap02)
	}
	if lines := AnalyticComplexity(); len(lines) < 5 || !strings.Contains(lines[1], "Memory") {
		t.Error("AnalyticComplexity table malformed")
	}
}

func TestRunHeavyHittersExperiment(t *testing.T) {
	ds := smallWC(t)
	rows, err := RunHeavyHitters(ds, 0.02, []float64{0.01, 0.05}, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Recall < 1 {
			t.Errorf("phi=%v: recall %v < 1; Theorem 5 guarantees detection above (φ+ε)", r.Phi, r.Recall)
		}
		if r.Precision < 0.99 {
			t.Errorf("phi=%v: precision %v; items below (φ−ε) slipped through", r.Phi, r.Precision)
		}
	}
}

func TestRunGeometricExperiment(t *testing.T) {
	ds := SubsetEvents(smallWC(t), 8000)
	row, err := RunGeometric(ds, 4, 0.5, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if row.Updates != 8000 {
		t.Errorf("updates = %d", row.Updates)
	}
	if row.Syncs == 0 {
		t.Error("no syncs at all (threshold calibration broken)")
	}
	if row.Savings < 2 {
		t.Errorf("geometric savings %.1fx below 2x", row.Savings)
	}
}

// TestRunJoinMonitor pins the join-size scenario's shape: the disjoint phase
// stays below the threshold and the campaign phase crosses it.
func TestRunJoinMonitor(t *testing.T) {
	rows, err := RunJoinMonitor(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d phases, want 2", len(rows))
	}
	if d := rows[0]; d.ThresholdAbove || d.Crossings != 0 || d.Updates != 40_000 {
		t.Errorf("disjoint phase: %+v, want below the threshold after 40000 updates", d)
	}
	if c := rows[1]; !c.ThresholdAbove || c.Crossings == 0 || c.Syncs <= rows[0].Syncs {
		t.Errorf("campaign phase: %+v, want a crossing", c)
	}
}

func TestRunAblationSplit(t *testing.T) {
	ds := SubsetEvents(smallWC(t), 15000)
	rows, err := RunAblationSplit(ds, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestPrintersDoNotPanic(t *testing.T) {
	var sb strings.Builder
	PrintCentralized(&sb, []CentralizedRow{{Dataset: "wc98", Eps: 0.1}, {Dataset: "wc98", Skipped: true, Reason: "x"}})
	PrintUpdateRates(&sb, []UpdateRateRow{{Dataset: "wc98"}})
	PrintDistributed(&sb, []DistributedRow{{Dataset: "wc98"}, {Skipped: true}})
	PrintRatios(&sb, []RatioRow{{Dataset: "snmp"}})
	PrintScaling(&sb, []ScalingRow{{Dataset: "snmp"}})
	PrintComplexity(&sb, []ComplexityRow{{Eps: 0.1}})
	PrintHeavyHitters(&sb, []HeavyHitterRow{{Phi: 0.01}})
	PrintGeom(&sb, GeomRow{})
	PrintAblationSplit(&sb, []AblationSplitRow{{Split: "x"}})
	if sb.Len() == 0 {
		t.Error("printers produced no output")
	}
}

func TestRunMotivation(t *testing.T) {
	ds := smallWC(t)
	rows, err := RunMotivation(ds, 0.01, 0.1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	cmRow, ecmRow := rows[0], rows[1]
	// The full-history summary must leak (roughly) all expired mass; the
	// windowed summary must not.
	if cmRow.StaleLeak < 0.7 {
		t.Errorf("full-history CM stale leak %v, want ≳1", cmRow.StaleLeak)
	}
	if ecmRow.StaleLeak > cmRow.StaleLeak/2 {
		t.Errorf("ECM stale leak %v not well below CM %v", ecmRow.StaleLeak, cmRow.StaleLeak)
	}
	if ecmRow.AvgErr >= cmRow.AvgErr {
		t.Errorf("ECM avg err %v not below CM %v", ecmRow.AvgErr, cmRow.AvgErr)
	}
}
