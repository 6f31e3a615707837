package experiments

import (
	"fmt"
	"math/rand"

	"ecmsketch/internal/core"
	"ecmsketch/internal/dyadic"
	"ecmsketch/internal/geom"
	"ecmsketch/internal/window"
	"ecmsketch/internal/workload"
)

// HeavyHitterRow summarizes one φ point of the Section 6.1 functional
// validation: precision/recall of sketch-reported heavy hitters against the
// exact oracle.
type HeavyHitterRow struct {
	Dataset   string
	Phi       float64
	Reported  int
	TrueCount int
	Recall    float64 // fraction of true hitters reported
	Precision float64 // fraction of reports with frequency ≥ (φ−ε)·||a||₁
	Memory    int
}

// RunHeavyHitters validates the dyadic group-testing heavy-hitter detection
// of Section 6.1 on a dataset: per Theorem 5, recall of items above
// (φ+ε)·||a||₁ must be 1, and no reported item may fall below the (φ−ε)
// guard band.
func RunHeavyHitters(ds Dataset, eps float64, phis []float64, domainBits int) ([]HeavyHitterRow, error) {
	h, err := dyadic.New(dyadic.Params{
		Sketch: core.Params{
			Epsilon:      eps,
			Delta:        0.1,
			WindowLength: ds.Window,
			UpperBound:   ds.UpperBound,
			Seed:         77,
		},
		DomainBits: domainBits,
	})
	if err != nil {
		return nil, err
	}
	var now Tick
	mask := uint64(1)<<uint(domainBits) - 1
	for _, ev := range ds.Events {
		if err := h.Add(ev.Key&mask, ev.Time); err != nil {
			return nil, err
		}
		now = ev.Time
	}
	h.Advance(now)

	var rows []HeavyHitterRow
	total := float64(ds.Oracle.Total(ds.Window))
	for _, phi := range phis {
		hits, err := h.HeavyHitters(phi, ds.Window)
		if err != nil {
			return nil, err
		}
		reported := map[uint64]bool{}
		for _, it := range hits {
			reported[it.Key] = true
		}
		// Ground truth from the oracle.
		mustFind := 0
		found := 0
		for _, k := range ds.Oracle.Keys() {
			f := float64(ds.Oracle.Freq(k&mask, ds.Window))
			if f >= (phi+eps)*total {
				mustFind++
				if reported[k&mask] {
					found++
				}
			}
		}
		ok := 0
		for _, it := range hits {
			if float64(ds.Oracle.Freq(it.Key, ds.Window)) >= (phi-eps)*total {
				ok++
			}
		}
		row := HeavyHitterRow{
			Dataset:   ds.Name,
			Phi:       phi,
			Reported:  len(hits),
			TrueCount: mustFind,
			Memory:    h.MemoryBytes(),
		}
		if mustFind > 0 {
			row.Recall = float64(found) / float64(mustFind)
		} else {
			row.Recall = 1
		}
		if len(hits) > 0 {
			row.Precision = float64(ok) / float64(len(hits))
		} else {
			row.Precision = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GeomRow summarizes one geometric-monitoring run (Section 6.2).
type GeomRow struct {
	Dataset    string
	Sites      int
	Threshold  float64
	Updates    int
	Syncs      int
	Crossings  int
	BytesSent  int
	NaiveBytes int
	Savings    float64 // naive / geometric transfer ratio
}

// RunGeometric monitors a self-join threshold over the dataset distributed
// across a few sites, reporting the communication the geometric method
// spends against the ship-every-update naive baseline.
func RunGeometric(ds Dataset, sites int, thresholdFactor float64, maxEvents int) (GeomRow, error) {
	if sites <= 0 {
		sites = 4
	}
	if maxEvents <= 0 || maxEvents > len(ds.Events) {
		maxEvents = len(ds.Events)
	}
	// Calibrate the threshold: thresholdFactor × the final self-join of the
	// per-site average stream (≈ crossing mid-run as mass accumulates).
	oracleSJ := ds.Oracle.SelfJoin(ds.Window)
	threshold := thresholdFactor * oracleSJ / float64(sites*sites)
	cfg := geom.Config{
		Sketch: core.Params{
			Epsilon:      0.2,
			Delta:        0.2,
			Query:        core.InnerProductQuery,
			WindowLength: ds.Window,
			UpperBound:   ds.UpperBound,
			Seed:         55,
		},
		Function:   geom.SelfJoinFn{},
		Threshold:  threshold,
		CheckEvery: 16,
	}
	m, err := geom.NewMonitor(cfg, sites)
	if err != nil {
		return GeomRow{}, err
	}
	for i := 0; i < maxEvents; i++ {
		ev := ds.Events[i]
		if _, err := m.Update(ev.Site%sites, ev.Key, ev.Time); err != nil {
			return GeomRow{}, err
		}
	}
	st := m.Stats()
	naive := m.NaiveSyncBytes()
	row := GeomRow{
		Dataset:    ds.Name,
		Sites:      sites,
		Threshold:  threshold,
		Updates:    st.Updates,
		Syncs:      st.Syncs,
		Crossings:  st.Crossings,
		BytesSent:  st.BytesSent,
		NaiveBytes: naive,
	}
	if st.BytesSent > 0 {
		row.Savings = float64(naive) / float64(st.BytesSent)
	}
	return row, nil
}

// JoinPhaseRow is a two-stream join-size monitor's statistics after one
// phase of RunJoinMonitor, cumulative over the run.
type JoinPhaseRow struct {
	Phase string
	geom.Stats
}

// RunJoinMonitor monitors the windowed join size between two streams per
// site — clicks ⋈ purchases by user — with the geometric method over
// concatenated sketch vectors (geom.PairMonitor with geom.InnerProductFn),
// the extension beyond self-joins the paper lists as ongoing work in
// Section 6.2. Three sites see a disjoint phase, in which clicks and
// purchases come from disjoint user ranges, then a campaign phase, in which
// one small user group both clicks and buys and inflates the join past the
// threshold. The stream is synthetic and seeded, so the run is
// deterministic.
func RunJoinMonitor(eventsPerPhase int) ([]JoinPhaseRow, error) {
	const (
		sites = 3
		users = 3000
	)
	m, err := geom.NewPairMonitor(geom.Config{
		Sketch: core.Params{
			Epsilon:      0.1,
			Delta:        0.1,
			Query:        core.InnerProductQuery,
			WindowLength: 100_000,
		},
		Function:   geom.InnerProductFn{},
		Threshold:  1_500_000, // above the disjoint phase's collision floor (≈ε·‖a‖·‖b‖)
		CheckEvery: 8,
	}, sites)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(9))
	var now Tick
	var rows []JoinPhaseRow
	for _, phase := range []struct {
		name    string
		overlap bool
	}{{"disjoint", false}, {"campaign", true}} {
		for i := 0; i < eventsPerPhase; i++ {
			now++
			site := rng.Intn(sites)
			click := uint64(rng.Intn(users))
			buy := uint64(users + rng.Intn(users))
			if phase.overlap {
				if rng.Intn(2) == 0 {
					click = uint64(rng.Intn(20))
				}
				if rng.Intn(2) == 0 {
					buy = uint64(rng.Intn(20))
				}
			}
			if _, err := m.Update(site, geom.StreamA, click, now); err != nil {
				return nil, err
			}
			if _, err := m.Update(site, geom.StreamB, buy, now); err != nil {
				return nil, err
			}
		}
		rows = append(rows, JoinPhaseRow{Phase: phase.name, Stats: m.Stats()})
	}
	return rows, nil
}

// AblationSplitRow compares the paper's memory-optimal ε split against the
// naive split on the same workload (DESIGN.md §4).
type AblationSplitRow struct {
	Dataset string
	Eps     float64
	Split   string
	Memory  int
	AvgErr  float64
}

// RunAblationSplit quantifies what the inner-product-optimal split buys over
// the point-optimal split when answering self-join queries.
func RunAblationSplit(ds Dataset, eps float64) ([]AblationSplitRow, error) {
	var rows []AblationSplitRow
	for _, spec := range []struct {
		name  string
		split core.Split
	}{
		{"optimal-ip", core.SplitInnerProduct(eps)},
		{"point-split", core.SplitPoint(eps)},
	} {
		sp := spec.split
		s, err := core.New(core.Params{
			Delta:        0.1,
			WindowLength: ds.Window,
			UpperBound:   ds.UpperBound,
			Seed:         1234,
			Split:        &sp,
			Epsilon:      eps,
		})
		if err != nil {
			return nil, err
		}
		ingest(s, ds)
		avg, _, _ := evalSelfJoinQueries(s, ds)
		rows = append(rows, AblationSplitRow{
			Dataset: ds.Name, Eps: eps, Split: spec.name,
			Memory: s.MemoryBytes(), AvgErr: avg,
		})
	}
	return rows, nil
}

// SubsetEvents returns a dataset restricted to its first n events, with the
// oracle rebuilt to match. Used by benchmarks to bound runtime.
func SubsetEvents(ds Dataset, n int) Dataset {
	if n >= len(ds.Events) {
		return ds
	}
	out := ds
	out.Events = ds.Events[:n]
	out.Oracle = workload.NewOracle(ds.Window)
	for _, ev := range out.Events {
		out.Oracle.AddEvent(ev)
	}
	return out
}

// CheckShape verifies a comparative claim of the paper's evaluation and
// returns a formatted verdict line; used by ecmbench to print the
// "who wins" summary of EXPERIMENTS.md.
func CheckShape(name string, ok bool) string {
	verdict := "HOLDS"
	if !ok {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("  [%s] %s", verdict, name)
}

// AlgoLabel renders the paper's variant names (ECM-EH, ECM-DW, ECM-RW).
func AlgoLabel(a window.Algorithm) string { return "ECM-" + a.String() }
