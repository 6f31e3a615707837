package experiments

import (
	"fmt"
	"math"
	"time"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// CentralizedRow is one point of Figure 4: a sketch variant at one ε,
// configured (ε-split) for one query type, with its memory footprint and
// observed errors.
type CentralizedRow struct {
	Dataset string
	Algo    window.Algorithm
	Eps     float64
	Query   core.QueryKind
	Memory  int     // bytes after ingesting the stream
	AvgErr  float64 // mean observed relative error across ranges/items
	MaxErr  float64 // maximum observed relative error
	Queries int     // number of individual queries evaluated
	Skipped bool    // true when the configuration was not run (paper: RW at low ε)
	Reason  string
}

// CentralizedConfig bounds the evaluation work.
type CentralizedConfig struct {
	// Epsilons to sweep; the paper uses [0.05, 0.25].
	Epsilons []float64
	// Delta is fixed at 0.1 in the paper.
	Delta float64
	// Algorithms to compare.
	Algorithms []window.Algorithm
	// MaxPointKeys caps the number of distinct items point-queried per
	// range (the paper queries all; we sample for laptop runtimes and note
	// it in EXPERIMENTS.md). 0 means all.
	MaxPointKeys int
	// SkipRWBelow skips randomized-wave runs with ε below this value, as
	// the paper's own ε=0.05 RW run could not complete.
	SkipRWBelow float64
}

// DefaultCentralizedConfig mirrors the paper's Figure 4 sweep.
func DefaultCentralizedConfig() CentralizedConfig {
	return CentralizedConfig{
		Epsilons:     []float64{0.05, 0.10, 0.15, 0.20, 0.25},
		Delta:        0.1,
		Algorithms:   []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW},
		MaxPointKeys: 1500,
		SkipRWBelow:  0.10,
	}
}

// RunCentralized reproduces Figure 4(a)-(d): for every (algorithm, ε) it
// builds a point-optimized and a self-join-optimized sketch over the whole
// stream, then evaluates point queries for the distinct items of each query
// range and one self-join query per range, reporting observed error versus
// memory. Randomized waves are excluded from self-join rows, as the paper's
// RW variant carries no inner-product guarantee.
func RunCentralized(ds Dataset, cfg CentralizedConfig) ([]CentralizedRow, error) {
	var rows []CentralizedRow
	for _, algo := range cfg.Algorithms {
		for _, eps := range cfg.Epsilons {
			if algo == window.AlgoRW && eps < cfg.SkipRWBelow {
				rows = append(rows, CentralizedRow{
					Dataset: ds.Name, Algo: algo, Eps: eps, Query: core.PointQuery,
					Skipped: true, Reason: "RW memory infeasible (paper: did not complete)",
				})
				continue
			}
			pointRow, err := centralizedPoint(ds, algo, eps, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, pointRow)
			if algo == window.AlgoRW {
				continue // no self-join guarantee for RW (Section 7.2)
			}
			sjRow, err := centralizedSelfJoin(ds, algo, eps, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, sjRow)
		}
	}
	return rows, nil
}

// newSketch builds the centralized sketch of one experiment cell. Its
// identifier salt is fixed, so an RW row does not depend on how many
// sketches the process built before it.
func newSketch(ds Dataset, algo window.Algorithm, eps, delta float64, q core.QueryKind) (*core.Sketch, error) {
	s, err := core.New(core.Params{
		Epsilon:      eps,
		Delta:        delta,
		Query:        q,
		Algorithm:    algo,
		WindowLength: ds.Window,
		UpperBound:   ds.UpperBound,
		Seed:         1234,
	})
	if err != nil {
		return nil, err
	}
	s.SetIDSalt(0xC3A5_C85C_97CB_3127)
	return s, nil
}

func ingest(s *core.Sketch, ds Dataset) {
	var now Tick
	for _, ev := range ds.Events {
		s.Add(ev.Key, ev.Time)
		now = ev.Time
	}
	s.Advance(now)
}

func centralizedPoint(ds Dataset, algo window.Algorithm, eps float64, cfg CentralizedConfig) (CentralizedRow, error) {
	s, err := newSketch(ds, algo, eps, cfg.Delta, core.PointQuery)
	if err != nil {
		return CentralizedRow{}, fmt.Errorf("experiments: %v ε=%v: %w", algo, eps, err)
	}
	ingest(s, ds)
	row := CentralizedRow{Dataset: ds.Name, Algo: algo, Eps: eps, Query: core.PointQuery, Memory: s.MemoryBytes()}
	row.AvgErr, row.MaxErr, row.Queries = evalPointQueries(s, ds, cfg.MaxPointKeys)
	return row, nil
}

// minRangeMass is the smallest ||a_r||₁ a query range must hold to enter the
// error statistics. The paper's real traces carry ≥10³ events even in their
// smallest 10-second range; our scaled streams are sparser, and a range with
// a handful of events makes relative error degenerate (one item of absolute
// error being half the range mass). EXPERIMENTS.md documents this floor.
const minRangeMass = 100

// evalPointQueries runs, for every query range, one point query per distinct
// item within the range (sampled down to maxKeys), measuring the error
// relative to ||a_r||₁ as in Section 7.1.
func evalPointQueries(s *core.Sketch, ds Dataset, maxKeys int) (avg, max float64, n int) {
	keys := ds.Oracle.Keys()
	var sum float64
	for _, r := range ds.QueryRanges() {
		l1 := float64(ds.Oracle.Total(r))
		if l1 < minRangeMass {
			continue
		}
		step := 1
		if maxKeys > 0 && len(keys) > maxKeys {
			step = len(keys) / maxKeys
		}
		for i := 0; i < len(keys); i += step {
			k := keys[i]
			want := float64(ds.Oracle.Freq(k, r))
			if want == 0 && ds.Oracle.Freq(k, ds.Window) == 0 {
				continue // item entirely outside the window: not "in range"
			}
			got := s.Estimate(k, r)
			e := math.Abs(got-want) / l1
			sum += e
			if e > max {
				max = e
			}
			n++
		}
	}
	if n > 0 {
		avg = sum / float64(n)
	}
	return avg, max, n
}

func centralizedSelfJoin(ds Dataset, algo window.Algorithm, eps float64, cfg CentralizedConfig) (CentralizedRow, error) {
	s, err := newSketch(ds, algo, eps, cfg.Delta, core.InnerProductQuery)
	if err != nil {
		return CentralizedRow{}, fmt.Errorf("experiments: %v ε=%v: %w", algo, eps, err)
	}
	ingest(s, ds)
	row := CentralizedRow{Dataset: ds.Name, Algo: algo, Eps: eps, Query: core.InnerProductQuery, Memory: s.MemoryBytes()}
	row.AvgErr, row.MaxErr, row.Queries = evalSelfJoinQueries(s, ds)
	return row, nil
}

// evalSelfJoinQueries runs one self-join query per range, with errors
// relative to ||a_r||₁² (Section 7.1).
func evalSelfJoinQueries(s *core.Sketch, ds Dataset) (avg, max float64, n int) {
	var sum float64
	for _, r := range ds.QueryRanges() {
		l1 := float64(ds.Oracle.Total(r))
		if l1 < minRangeMass {
			continue
		}
		want := ds.Oracle.SelfJoin(r)
		got := s.SelfJoin(r)
		e := math.Abs(got-want) / (l1 * l1)
		sum += e
		if e > max {
			max = e
		}
		n++
	}
	if n > 0 {
		avg = sum / float64(n)
	}
	return avg, max, n
}

// UpdateRateRow is one cell of Table 3: sustained updates per second for a
// sketch variant at ε=0.1.
type UpdateRateRow struct {
	Dataset       string
	Algo          window.Algorithm
	Eps           float64
	UpdatesPerSec float64
	Events        int
}

// RunUpdateRates reproduces Table 3: wall-clock ingest throughput of the
// three variants at ε=0.1 (point-optimized, as in the centralized setup).
func RunUpdateRates(ds Dataset, eps, delta float64, algos []window.Algorithm) ([]UpdateRateRow, error) {
	var rows []UpdateRateRow
	for _, algo := range algos {
		s, err := newSketch(ds, algo, eps, delta, core.PointQuery)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ingest(s, ds)
		elapsed := time.Since(start).Seconds()
		rows = append(rows, UpdateRateRow{
			Dataset:       ds.Name,
			Algo:          algo,
			Eps:           eps,
			UpdatesPerSec: float64(len(ds.Events)) / elapsed,
			Events:        len(ds.Events),
		})
	}
	return rows, nil
}
