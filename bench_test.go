// Benchmarks regenerating every table and figure of the paper's evaluation
// at a reduced, benchmark-friendly scale. Each Benchmark{Table,Fig}* runs
// the corresponding experiment and reports the headline quantities via
// b.ReportMetric, so `go test -bench=. -benchmem` prints the same series the
// paper does (full-scale runs: cmd/ecmbench -exp).
package ecmsketch_test

import (
	"sync"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/experiments"
	"ecmsketch/internal/window"
)

// benchEvents is the per-dataset stream length used by benchmarks; large
// enough for the comparative shapes to show, small enough for -bench=. runs.
const benchEvents = 30000

var (
	benchOnce sync.Once
	benchWC   experiments.Dataset
	benchSN   experiments.Dataset
)

func benchDatasets(b *testing.B) (experiments.Dataset, experiments.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchWC, err = experiments.LoadWC98(benchEvents); err != nil {
			panic(err)
		}
		if benchSN, err = experiments.LoadSNMP(benchEvents); err != nil {
			panic(err)
		}
	})
	return benchWC, benchSN
}

// BenchmarkTable2Complexity measures one sliding-window counter of each kind
// (memory, ns/update, ns/query) across ε — the empirical check behind the
// complexity table.
func BenchmarkTable2Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunComplexity([]float64{0.05, 0.1, 0.2}, 50000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Eps == 0.1 {
					b.ReportMetric(float64(r.MemoryBytes), r.Algo.String()+"-bytes")
				}
			}
		}
	}
}

// BenchmarkTable3UpdateRate_* measures sustained sketch ingest throughput at
// ε=0.1 (the paper's Table 3), one sub-benchmark per variant and dataset.
func BenchmarkTable3UpdateRate(b *testing.B) {
	wc, sn := benchDatasets(b)
	for _, ds := range []experiments.Dataset{wc, sn} {
		for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
			b.Run(ds.Name+"/"+algo.String(), func(b *testing.B) {
				s, err := core.New(core.Params{
					Epsilon:      0.1,
					Delta:        0.1,
					Algorithm:    algo,
					WindowLength: ds.Window,
					UpperBound:   ds.UpperBound,
					Seed:         1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := ds.Events[i%len(ds.Events)]
					s.Add(ev.Key, ev.Time) // wrapped times clamp monotonically
				}
			})
		}
	}
}

// BenchmarkFig4Centralized runs the centralized error-vs-memory sweep and
// reports the ε=0.1 point-query memory of each variant plus the worst
// observed error, mirroring Figure 4's axes.
func BenchmarkFig4Centralized(b *testing.B) {
	wc, _ := benchDatasets(b)
	cfg := experiments.CentralizedConfig{
		Epsilons:     []float64{0.1, 0.2},
		Delta:        0.1,
		Algorithms:   []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW},
		MaxPointKeys: 300,
		SkipRWBelow:  0.1,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCentralized(wc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var worst float64
			for _, r := range rows {
				if r.Skipped {
					continue
				}
				if r.Eps == 0.1 && r.Query == core.PointQuery {
					b.ReportMetric(float64(r.Memory), "ECM-"+r.Algo.String()+"-bytes")
				}
				if r.MaxErr > worst {
					worst = r.MaxErr
				}
			}
			b.ReportMetric(worst, "max-observed-err")
		}
	}
}

// BenchmarkFig5Distributed runs the native-topology aggregation sweep and
// reports transfer volume per variant at ε=0.1 — Figure 5's axes.
func BenchmarkFig5Distributed(b *testing.B) {
	wc, _ := benchDatasets(b)
	cfg := experiments.DistributedConfig{
		Epsilons:     []float64{0.1},
		Delta:        0.1,
		MaxPointKeys: 200,
		SkipRWBelow:  0.1,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunDistributed(wc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Skipped || r.Query != core.PointQuery {
					continue
				}
				b.ReportMetric(float64(r.Transfer), "ECM-"+r.Algo.String()+"-transfer-bytes")
				b.ReportMetric(r.AvgErr, "ECM-"+r.Algo.String()+"-avg-err")
			}
		}
	}
}

// BenchmarkTable4Ratio runs the centralized-vs-distributed comparison and
// reports the EH point-query inflation ratio — Table 4's headline cell.
func BenchmarkTable4Ratio(b *testing.B) {
	wc, _ := benchDatasets(b)
	ds := experiments.SubsetEvents(wc, 20000)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCentralizedVsDistributed(ds, []float64{0.1}, 0.1, 200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Algo == window.AlgoEH && r.Query == core.PointQuery {
					b.ReportMetric(r.Ratio, "centr-vs-distr-ratio")
				}
			}
		}
	}
}

// BenchmarkFig6Scaling runs the artificial-network sweep (1..8 nodes at
// bench scale) and reports error and transfer at the extremes — Figure 6's
// axes.
func BenchmarkFig6Scaling(b *testing.B) {
	_, sn := benchDatasets(b)
	ds := experiments.SubsetEvents(sn, 15000)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunScaling(ds, 0.1, 0.1, 8, 150)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Algo == window.AlgoEH && r.Query == core.PointQuery && (r.Nodes == 1 || r.Nodes == 8) {
					b.ReportMetric(r.AvgErr, "err-at-"+itoa(r.Nodes)+"-nodes")
					b.ReportMetric(float64(r.Transfer), "transfer-at-"+itoa(r.Nodes)+"-nodes")
				}
			}
		}
	}
}

// BenchmarkHeavyHitters exercises the Section 6.1 group-testing detection.
func BenchmarkHeavyHitters(b *testing.B) {
	wc, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunHeavyHitters(wc, 0.02, []float64{0.01}, 14)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			b.ReportMetric(rows[0].Recall, "recall")
			b.ReportMetric(rows[0].Precision, "precision")
		}
	}
}

// BenchmarkGeometricMonitoring exercises the Section 6.2 protocol and
// reports its communication savings over the ship-everything baseline.
func BenchmarkGeometricMonitoring(b *testing.B) {
	wc, _ := benchDatasets(b)
	ds := experiments.SubsetEvents(wc, 10000)
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunGeometric(ds, 4, 0.5, 10000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(row.Savings, "comm-savings-x")
			b.ReportMetric(float64(row.Syncs), "syncs")
		}
	}
}

// BenchmarkAblationEpsilonSplit compares the paper's memory-optimal ε-split
// against the point split on self-join workloads (DESIGN.md §4).
func BenchmarkAblationEpsilonSplit(b *testing.B) {
	wc, _ := benchDatasets(b)
	ds := experiments.SubsetEvents(wc, 15000)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationSplit(ds, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Memory), r.Split+"-bytes")
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkMotivation runs the full-history-CM-vs-ECM comparison and reports
// the stale-mass leak of each summary.
func BenchmarkMotivation(b *testing.B) {
	wc, _ := benchDatasets(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunMotivation(wc, 0.01, 0.1, 300)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) == 2 {
			b.ReportMetric(rows[0].StaleLeak, "cm-stale-leak")
			b.ReportMetric(rows[1].StaleLeak, "ecm-stale-leak")
		}
	}
}

// BenchmarkGeomScaling runs the monitoring scaling study with balancing on.
func BenchmarkGeomScaling(b *testing.B) {
	wc, _ := benchDatasets(b)
	ds := experiments.SubsetEvents(wc, 10000)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunGeometricScaling(ds, []int{4}, []bool{true}, 10000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) == 1 {
			b.ReportMetric(rows[0].Savings, "comm-savings-x")
		}
	}
}

// BenchmarkPlanAblation runs the Section 5.1 ε-planning comparison.
func BenchmarkPlanAblation(b *testing.B) {
	wc, _ := benchDatasets(b)
	ds := experiments.SubsetEvents(wc, 15000)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunPlanAblation(ds, 0.15, 150)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RootErr, r.Strategy+"-root-err")
			}
		}
	}
}
