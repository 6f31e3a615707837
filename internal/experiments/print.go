package experiments

import (
	"fmt"
	"io"
)

// Human-readable renderers producing the same rows/series the paper
// reports; consumed by cmd/ecmbench and pasted into EXPERIMENTS.md.

// PrintCentralized renders Figure 4 rows.
func PrintCentralized(w io.Writer, rows []CentralizedRow) {
	fmt.Fprintf(w, "%-6s %-7s %-5s %-13s %12s %10s %10s %8s\n",
		"data", "variant", "eps", "query", "memory(B)", "avg-err", "max-err", "queries")
	for _, r := range rows {
		if r.Skipped {
			fmt.Fprintf(w, "%-6s %-7s %-5.2f %-13s %12s  (skipped: %s)\n",
				r.Dataset, AlgoLabel(r.Algo), r.Eps, r.Query, "N/A", r.Reason)
			continue
		}
		fmt.Fprintf(w, "%-6s %-7s %-5.2f %-13s %12d %10.5f %10.5f %8d\n",
			r.Dataset, AlgoLabel(r.Algo), r.Eps, r.Query, r.Memory, r.AvgErr, r.MaxErr, r.Queries)
	}
}

// PrintUpdateRates renders Table 3 rows.
func PrintUpdateRates(w io.Writer, rows []UpdateRateRow) {
	fmt.Fprintf(w, "%-6s %-7s %-5s %15s %10s\n", "data", "variant", "eps", "updates/sec", "events")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-7s %-5.2f %15.0f %10d\n",
			r.Dataset, AlgoLabel(r.Algo), r.Eps, r.UpdatesPerSec, r.Events)
	}
}

// PrintDistributed renders Figure 5 rows.
func PrintDistributed(w io.Writer, rows []DistributedRow) {
	fmt.Fprintf(w, "%-6s %-7s %-5s %-13s %6s %14s %10s %10s\n",
		"data", "variant", "eps", "query", "sites", "transfer(B)", "avg-err", "max-err")
	for _, r := range rows {
		if r.Skipped {
			fmt.Fprintf(w, "%-6s %-7s %-5.2f %-13s %6d  (skipped: %s)\n",
				r.Dataset, AlgoLabel(r.Algo), r.Eps, r.Query, r.Sites, r.Reason)
			continue
		}
		fmt.Fprintf(w, "%-6s %-7s %-5.2f %-13s %6d %14d %10.5f %10.5f\n",
			r.Dataset, AlgoLabel(r.Algo), r.Eps, r.Query, r.Sites, r.Transfer, r.AvgErr, r.MaxErr)
	}
}

// PrintRatios renders Table 4 rows.
func PrintRatios(w io.Writer, rows []RatioRow) {
	fmt.Fprintf(w, "%-6s %-7s %-5s %-13s %12s %12s %8s\n",
		"data", "variant", "eps", "query", "centralized", "distributed", "ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-7s %-5.2f %-13s %12.5f %12.5f %8.3f\n",
			r.Dataset, AlgoLabel(r.Algo), r.Eps, r.Query, r.Centralized, r.Distributed, r.Ratio)
	}
}

// PrintScaling renders Figure 6 rows.
func PrintScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintf(w, "%-6s %-7s %-13s %6s %10s %14s\n",
		"data", "variant", "query", "nodes", "avg-err", "transfer(B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-7s %-13s %6d %10.5f %14d\n",
			r.Dataset, AlgoLabel(r.Algo), r.Query, r.Nodes, r.AvgErr, r.Transfer)
	}
}

// PrintComplexity renders the empirical Table 2 check.
func PrintComplexity(w io.Writer, rows []ComplexityRow) {
	fmt.Fprintf(w, "%-7s %-5s %12s %12s %12s\n", "variant", "eps", "memory(B)", "ns/update", "ns/query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %-5.2f %12d %12.1f %12.1f\n",
			r.Algo, r.Eps, r.MemoryBytes, r.NsPerUpdate, r.NsPerQuery)
	}
}

// PrintHeavyHitters renders the Section 6.1 validation rows.
func PrintHeavyHitters(w io.Writer, rows []HeavyHitterRow) {
	fmt.Fprintf(w, "%-6s %-7s %9s %9s %8s %10s %12s\n",
		"data", "phi", "reported", "true", "recall", "precision", "memory(B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-7.4f %9d %9d %8.3f %10.3f %12d\n",
			r.Dataset, r.Phi, r.Reported, r.TrueCount, r.Recall, r.Precision, r.Memory)
	}
}

// PrintGeom renders the Section 6.2 monitoring summary.
func PrintGeom(w io.Writer, r GeomRow) {
	fmt.Fprintf(w, "dataset=%s sites=%d threshold=%.0f\n", r.Dataset, r.Sites, r.Threshold)
	fmt.Fprintf(w, "updates=%d syncs=%d crossings=%d\n", r.Updates, r.Syncs, r.Crossings)
	fmt.Fprintf(w, "geometric transfer=%dB naive transfer=%dB savings=%.1fx\n",
		r.BytesSent, r.NaiveBytes, r.Savings)
}

// PrintJoinMonitor renders the per-phase rows of the join-size monitor.
func PrintJoinMonitor(w io.Writer, rows []JoinPhaseRow) {
	fmt.Fprintf(w, "%-9s %8s %12s %6s %6s %9s %7s %10s %10s\n",
		"phase", "updates", "join-est", "above", "syncs", "crossings", "checks", "violations", "sent(B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %8d %12.0f %6v %6d %9d %7d %10d %10d\n",
			r.Phase, r.Updates, r.FunctionValue, r.ThresholdAbove, r.Syncs, r.Crossings, r.LocalChecks, r.Violations, r.BytesSent)
	}
}

// PrintAblationSplit renders the ε-split ablation rows.
func PrintAblationSplit(w io.Writer, rows []AblationSplitRow) {
	fmt.Fprintf(w, "%-6s %-5s %-12s %12s %10s\n", "data", "eps", "split", "memory(B)", "avg-err")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-5.2f %-12s %12d %10.5f\n", r.Dataset, r.Eps, r.Split, r.Memory, r.AvgErr)
	}
}

// PrintMotivation renders the full-history-vs-windowed comparison.
func PrintMotivation(w io.Writer, rows []MotivationRow) {
	fmt.Fprintf(w, "%-16s %12s %10s %10s %12s\n", "summary", "memory(B)", "avg-err", "max-err", "stale-leak")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12d %10.5f %10.5f %12.2f\n", r.Summary, r.Memory, r.AvgErr, r.MaxErr, r.StaleLeak)
	}
}
