package experiments

import (
	"fmt"
	"math"

	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// DistributedRow is one point of Figure 5: a variant at one ε aggregated
// over the dataset's native site topology, with the total transfer volume
// and the observed error at the root.
type DistributedRow struct {
	Dataset    string
	Algo       window.Algorithm
	Eps        float64
	Query      core.QueryKind
	Sites      int
	TreeHeight int
	Transfer   int64 // bytes shipped during aggregation
	AvgErr     float64
	MaxErr     float64
	Skipped    bool
	Reason     string
}

// DistributedConfig bounds the Figure 5 sweep.
type DistributedConfig struct {
	Epsilons     []float64
	Delta        float64
	MaxPointKeys int
	SkipRWBelow  float64
}

// DefaultDistributedConfig mirrors the paper's Figure 5 sweep: EH and RW
// variants (DW offers no advantage over EH and is excluded, Section 7.3).
func DefaultDistributedConfig() DistributedConfig {
	return DistributedConfig{
		Epsilons:     []float64{0.05, 0.10, 0.15, 0.20, 0.25},
		Delta:        0.1,
		MaxPointKeys: 1000,
		SkipRWBelow:  0.10,
	}
}

// RunDistributed reproduces Figure 5: the dataset's stream is split across
// its native sites (33 wc'98 servers / 535 snmp APs) arranged as leaves of a
// balanced binary tree; sketches are aggregated to the root and the root's
// observed error is reported against the total transfer volume.
func RunDistributed(ds Dataset, cfg DistributedConfig) ([]DistributedRow, error) {
	var rows []DistributedRow
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoRW} {
		for _, eps := range cfg.Epsilons {
			if algo == window.AlgoRW && eps < cfg.SkipRWBelow {
				rows = append(rows, DistributedRow{
					Dataset: ds.Name, Algo: algo, Eps: eps, Query: core.PointQuery,
					Sites: ds.Sites, Skipped: true,
					Reason: "RW memory infeasible (paper: did not complete)",
				})
				continue
			}
			row, err := runDistributedOnce(ds, algo, eps, cfg.Delta, ds.Sites, core.PointQuery, cfg.MaxPointKeys)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if algo == window.AlgoEH {
				sj, err := runDistributedOnce(ds, algo, eps, cfg.Delta, ds.Sites, core.InnerProductQuery, cfg.MaxPointKeys)
				if err != nil {
					return nil, err
				}
				rows = append(rows, sj)
			}
		}
	}
	return rows, nil
}

func runDistributedOnce(ds Dataset, algo window.Algorithm, eps, delta float64, sites int, q core.QueryKind, maxKeys int) (DistributedRow, error) {
	p := core.Params{
		Epsilon:      eps,
		Delta:        delta,
		Query:        q,
		Algorithm:    algo,
		WindowLength: ds.Window,
		UpperBound:   ds.UpperBound,
		Seed:         1234,
	}
	cluster, err := coord.NewCluster(p, sites)
	if err != nil {
		return DistributedRow{}, fmt.Errorf("experiments: %s %v ε=%v: %w", ds.Name, algo, eps, err)
	}
	cluster.IngestAll(ds.Events)
	root, height, err := cluster.AggregateTree()
	if err != nil {
		return DistributedRow{}, fmt.Errorf("experiments: aggregating %s %v ε=%v: %w", ds.Name, algo, eps, err)
	}
	row := DistributedRow{
		Dataset: ds.Name, Algo: algo, Eps: eps, Query: q,
		Sites: sites, TreeHeight: height, Transfer: cluster.Network().Bytes(),
	}
	if q == core.InnerProductQuery {
		row.AvgErr, row.MaxErr, _ = evalSelfJoinQueries(root, ds)
	} else {
		row.AvgErr, row.MaxErr, _ = evalPointQueries(root, ds, maxKeys)
	}
	return row, nil
}

// RatioRow is one row of Table 4: centralized vs distributed observed error.
type RatioRow struct {
	Dataset     string
	Algo        window.Algorithm
	Eps         float64
	Query       core.QueryKind
	Centralized float64
	Distributed float64
	Ratio       float64
}

// RunCentralizedVsDistributed reproduces Table 4 for the given ε values:
// the same stream summarized centrally and via tree aggregation, with the
// error inflation ratio.
func RunCentralizedVsDistributed(ds Dataset, epsilons []float64, delta float64, maxKeys int) ([]RatioRow, error) {
	var rows []RatioRow
	for _, eps := range epsilons {
		for _, spec := range []struct {
			algo window.Algorithm
			q    core.QueryKind
		}{
			{window.AlgoEH, core.PointQuery},
			{window.AlgoEH, core.InnerProductQuery},
			{window.AlgoRW, core.PointQuery},
		} {
			central, err := newSketch(ds, spec.algo, eps, delta, spec.q)
			if err != nil {
				return nil, err
			}
			ingest(central, ds)
			var cAvg float64
			if spec.q == core.InnerProductQuery {
				cAvg, _, _ = evalSelfJoinQueries(central, ds)
			} else {
				cAvg, _, _ = evalPointQueries(central, ds, maxKeys)
			}
			drow, err := runDistributedOnce(ds, spec.algo, eps, delta, ds.Sites, spec.q, maxKeys)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RatioRow{
				Dataset: ds.Name, Algo: spec.algo, Eps: eps, Query: spec.q,
				Centralized: cAvg, Distributed: drow.AvgErr,
				Ratio: drow.AvgErr / math.Max(cAvg, 1e-12),
			})
		}
	}
	return rows, nil
}

// ScalingRow is one point of Figure 6: error and network cost at a given
// artificial network size.
type ScalingRow struct {
	Dataset  string
	Algo     window.Algorithm
	Query    core.QueryKind
	Nodes    int
	AvgErr   float64
	Transfer int64
}

// RunScaling reproduces Figure 6: an artificial network of i nodes,
// i ∈ {1,2,4,...,256}, with the stream divided uniformly across them
// (events are reassigned round-robin), ε = δ = 0.1.
func RunScaling(ds Dataset, eps, delta float64, maxNodes int, maxKeys int) ([]ScalingRow, error) {
	if maxNodes <= 0 {
		maxNodes = 256
	}
	var rows []ScalingRow
	for nodes := 1; nodes <= maxNodes; nodes *= 2 {
		for _, spec := range []struct {
			algo window.Algorithm
			q    core.QueryKind
		}{
			{window.AlgoEH, core.PointQuery},
			{window.AlgoEH, core.InnerProductQuery},
			{window.AlgoRW, core.PointQuery},
		} {
			row, err := runScalingOnce(ds, spec.algo, eps, delta, nodes, spec.q, maxKeys)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runScalingOnce(ds Dataset, algo window.Algorithm, eps, delta float64, nodes int, q core.QueryKind, maxKeys int) (ScalingRow, error) {
	p := core.Params{
		Epsilon:      eps,
		Delta:        delta,
		Query:        q,
		Algorithm:    algo,
		WindowLength: ds.Window,
		UpperBound:   ds.UpperBound,
		Seed:         1234,
	}
	cluster, err := coord.NewCluster(p, nodes)
	if err != nil {
		return ScalingRow{}, err
	}
	cluster.Start()
	var now Tick
	for i, ev := range ds.Events {
		ev.Site = i % nodes // uniform division across the artificial network
		if ev.Time > now {
			now = ev.Time
		}
		cluster.Feed(ev)
	}
	cluster.Wait(now)
	root, _, err := cluster.AggregateTree()
	if err != nil {
		return ScalingRow{}, err
	}
	row := ScalingRow{Dataset: ds.Name, Algo: algo, Query: q, Nodes: nodes, Transfer: cluster.Network().Bytes()}
	if q == core.InnerProductQuery {
		row.AvgErr, _, _ = evalSelfJoinQueries(root, ds)
	} else {
		row.AvgErr, _, _ = evalPointQueries(root, ds, maxKeys)
	}
	return row, nil
}
