package experiments

import (
	"time"

	"ecmsketch/internal/window"
)

// ComplexityRow is one empirical scaling point backing Table 2: the measured
// memory and per-update cost of a single sliding-window counter — a one-cell
// bank, the layout every sketch runs on — at a given ε, used to check the
// advertised asymptotics (EH/DW memory linear in 1/ε, RW quadratic; O(1)
// amortized updates).
type ComplexityRow struct {
	Algo        window.Algorithm
	Eps         float64
	MemoryBytes int
	NsPerUpdate float64
	NsPerQuery  float64
}

// AnalyticComplexity returns the rows of Table 2 verbatim, as the paper
// states them.
func AnalyticComplexity() []string {
	return []string{
		"                     Exponential Histogram           Deterministic Wave              Randomized Wave",
		"Memory               O(1/eps ln(1/d) ln^2 g(N,S))    O(1/eps ln(1/d) ln^2 g(N,S))    O(1/eps^2 ln^2(d) ln^2 u(N,S))",
		"Amortized update     O(ln(1/d))                      O(ln(1/d))                      O(ln^2(d))",
		"Worst-case update    O(ln(1/d) ln(u(N,S)))           O(ln(1/d))*                     O(ln^2(d) ln(u(N,S)))",
		"Query                O(ln(1/d) ln(u(N,S))/sqrt(e))   O(ln(1/d) ln(u(N,S))/sqrt(e))   O(ln^2(d)(ln u(N,S)+1/e^2))",
		"",
		"g(N,S) = max(u(N,S), N).",
		"* the DW measured here inserts rank r into levels 0..tz(r): O(1) amortized,",
		"  O(log u) worst-case. The paper's strict O(1) worst case takes a single",
		"  placement per arrival and a union reconstruction at query time.",
	}
}

// RunComplexity measures one counter of each kind across an ε sweep,
// validating the memory asymptotics empirically.
func RunComplexity(epsilons []float64, events int) ([]ComplexityRow, error) {
	if events <= 0 {
		events = 200000
	}
	var rows []ComplexityRow
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		for _, eps := range epsilons {
			cfg := window.Config{
				Length:     Tick(events),
				Epsilon:    eps,
				Delta:      0.1,
				UpperBound: uint64(events),
			}
			c, err := window.NewBank(algo, cfg, 1)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for i := 0; i < events; i++ {
				c.Add(0, Tick(i+1))
			}
			upd := time.Since(start)
			const queries = 2000
			start = time.Now()
			var sink float64
			for i := 0; i < queries; i++ {
				sink += c.EstimateRange(0, Tick(1+i*events/queries))
			}
			qry := time.Since(start)
			_ = sink
			rows = append(rows, ComplexityRow{
				Algo:        algo,
				Eps:         eps,
				MemoryBytes: c.MemoryBytes(),
				NsPerUpdate: float64(upd.Nanoseconds()) / float64(events),
				NsPerQuery:  float64(qry.Nanoseconds()) / queries,
			})
		}
	}
	return rows, nil
}
