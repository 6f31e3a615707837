// Command ecmbench regenerates every table and figure of the paper's
// evaluation (Section 7) on the synthetic trace stand-ins, printing the same
// rows/series the paper reports.
//
// Usage:
//
//	ecmbench -exp all                 # everything, default scale
//	ecmbench -exp fig4 -dataset wc98  # one figure, one dataset
//	ecmbench -exp table3 -events 1000000
//
// Experiments: table2, table3, table4, fig4, fig5, fig6, heavy, geom,
// geomscale, plan, motivation, ablation, all.
//
// These are the paper's own measurements. The performance of this
// implementation — ingest, reads, refresh rounds, recovery — is measured by
// ./bench (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ecmsketch/internal/experiments"
	"ecmsketch/internal/window"
)

// registerFlags declares every flag of the binary on fs; testdata/surface.golden
// pins the set.
func registerFlags(fs *flag.FlagSet) (exp, dataset *string, events *int) {
	exp = fs.String("exp", "all", "experiment: table2|table3|table4|fig4|fig5|fig6|heavy|geom|geomscale|plan|motivation|ablation|all")
	dataset = fs.String("dataset", "both", "dataset: wc98|snmp|both")
	events = fs.Int("events", experiments.DefaultScale, "stream length per dataset")
	return exp, dataset, events
}

func main() {
	exp, dataset, events := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(*exp, *dataset, *events); err != nil {
		fmt.Fprintln(os.Stderr, "ecmbench:", err)
		os.Exit(1)
	}
}

var knownExperiments = map[string]bool{
	"all": true, "table2": true, "table3": true, "table4": true,
	"fig4": true, "fig5": true, "fig6": true,
	"heavy": true, "geom": true, "geomscale": true,
	"ablation": true, "plan": true, "motivation": true,
}

func run(exp, dataset string, events int) error {
	if !knownExperiments[exp] {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", exp, strings.Join(experimentNames(), ", "))
	}
	all := exp == "all"
	if all || exp == "table2" {
		runTable2()
		if exp == "table2" {
			return nil
		}
	}
	datasets, err := loadDatasets(dataset, events)
	if err != nil {
		return err
	}
	for _, ds := range datasets {
		if all || exp == "fig4" {
			if err := runFig4(ds); err != nil {
				return err
			}
		}
		if all || exp == "table3" {
			if err := runTable3(ds); err != nil {
				return err
			}
		}
		if all || exp == "fig5" {
			if err := runFig5(ds); err != nil {
				return err
			}
		}
		if all || exp == "table4" {
			if err := runTable4(ds); err != nil {
				return err
			}
		}
		if all || exp == "fig6" {
			if err := runFig6(ds); err != nil {
				return err
			}
		}
		if all || exp == "heavy" {
			if err := runHeavy(ds); err != nil {
				return err
			}
		}
		if all || exp == "geom" {
			if err := runGeom(ds); err != nil {
				return err
			}
		}
		if all || exp == "geomscale" {
			if err := runGeomScale(ds); err != nil {
				return err
			}
		}
		if all || exp == "ablation" {
			if err := runAblation(ds); err != nil {
				return err
			}
		}
		if all || exp == "plan" {
			if err := runPlan(ds); err != nil {
				return err
			}
		}
		if all || exp == "motivation" {
			if err := runMotivation(ds); err != nil {
				return err
			}
		}
	}
	return nil
}

func runMotivation(ds experiments.Dataset) error {
	header(fmt.Sprintf("Motivation (%s): full-history Count-Min vs ECM on windowed queries", ds.Name))
	rows, err := experiments.RunMotivation(ds, 0.01, 0.1, 800)
	if err != nil {
		return err
	}
	experiments.PrintMotivation(os.Stdout, rows)
	if len(rows) == 2 {
		fmt.Println("shape checks:")
		fmt.Println(experiments.CheckShape("full-history CM leaks expired mass; ECM does not",
			rows[0].StaleLeak > 0.7 && rows[1].StaleLeak < 0.5*rows[0].StaleLeak))
		fmt.Println(experiments.CheckShape("ECM error far below CM's on windowed queries",
			rows[1].AvgErr*2 < rows[0].AvgErr))
	}
	return nil
}

func runGeomScale(ds experiments.Dataset) error {
	header(fmt.Sprintf("Geometric monitoring scaling (%s): sites vs communication, ± balancing", ds.Name))
	rows, err := experiments.RunGeometricScaling(ds,
		[]int{2, 4, 8, 16}, []bool{false, true}, 40000)
	if err != nil {
		return err
	}
	experiments.PrintGeomScaling(os.Stdout, rows)
	return nil
}

func runPlan(ds experiments.Dataset) error {
	header(fmt.Sprintf("Multi-level ε planning (%s): naive vs planned per-site ε (Section 5.1)", ds.Name))
	rows, err := experiments.RunPlanAblation(ds, 0.15, 800)
	if err != nil {
		return err
	}
	experiments.PrintPlanAblation(os.Stdout, rows)
	ok := true
	for _, r := range rows {
		if r.Strategy == "planned" && r.RootErr > 0.15 {
			ok = false
		}
	}
	fmt.Println("shape checks:")
	fmt.Println(experiments.CheckShape("planned hierarchy meets the target error at the root", ok))
	return nil
}

func experimentNames() []string {
	names := make([]string, 0, len(knownExperiments))
	for n := range knownExperiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func loadDatasets(which string, events int) ([]experiments.Dataset, error) {
	var out []experiments.Dataset
	if which == "wc98" || which == "both" {
		ds, err := experiments.LoadWC98(events)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	if which == "snmp" || which == "both" {
		ds, err := experiments.LoadSNMP(events)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown dataset %q", which)
	}
	return out, nil
}

func header(title string) {
	fmt.Printf("\n===== %s =====\n", title)
}

func runTable2() {
	header("Table 2: complexity of ECM-sketch sliding-window counters (analytic)")
	for _, l := range experiments.AnalyticComplexity() {
		fmt.Println(l)
	}
	header("Table 2 empirical check: one counter, memory & cost vs eps")
	rows, err := experiments.RunComplexity([]float64{0.05, 0.1, 0.2}, 200000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table2:", err)
		return
	}
	experiments.PrintComplexity(os.Stdout, rows)
}

func runFig4(ds experiments.Dataset) error {
	header(fmt.Sprintf("Figure 4 (%s): observed error vs memory, centralized", ds.Name))
	rows, err := experiments.RunCentralized(ds, experiments.DefaultCentralizedConfig())
	if err != nil {
		return err
	}
	experiments.PrintCentralized(os.Stdout, rows)
	printFig4Shape(rows)
	return nil
}

func printFig4Shape(rows []experiments.CentralizedRow) {
	var ehMem, rwMem int
	boundOK := true
	for _, r := range rows {
		if r.Skipped {
			continue
		}
		if r.AvgErr > r.Eps {
			boundOK = false
		}
		if r.Eps == 0.10 && r.Query.String() == "point" {
			switch r.Algo {
			case window.AlgoEH:
				ehMem = r.Memory
			case window.AlgoRW:
				rwMem = r.Memory
			}
		}
	}
	fmt.Println("shape checks:")
	fmt.Println(experiments.CheckShape("observed error < configured eps everywhere", boundOK))
	if ehMem > 0 && rwMem > 0 {
		fmt.Println(experiments.CheckShape(
			fmt.Sprintf("RW memory >= 10x EH at eps=0.1 (%.1fx)", float64(rwMem)/float64(ehMem)),
			rwMem >= 10*ehMem))
	}
}

func runTable3(ds experiments.Dataset) error {
	header(fmt.Sprintf("Table 3 (%s): update rate, eps=0.1", ds.Name))
	rows, err := experiments.RunUpdateRates(ds, 0.1, 0.1,
		[]window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW})
	if err != nil {
		return err
	}
	experiments.PrintUpdateRates(os.Stdout, rows)
	if len(rows) == 3 {
		fmt.Println("shape checks:")
		// The paper measures EH ≈ 1.27× DW; both are O(1) amortized, so the
		// deterministic pair is expected to be comparable (within 25%) with
		// RW far behind.
		fmt.Println(experiments.CheckShape("EH and DW comparable (within 25%)",
			rows[0].UpdatesPerSec >= 0.75*rows[1].UpdatesPerSec))
		fmt.Println(experiments.CheckShape("RW slowest by a wide margin",
			rows[2].UpdatesPerSec*2 < rows[0].UpdatesPerSec))
	}
	return nil
}

func runFig5(ds experiments.Dataset) error {
	header(fmt.Sprintf("Figure 5 (%s): observed error vs transfer volume, %d sites", ds.Name, ds.Sites))
	rows, err := experiments.RunDistributed(ds, experiments.DefaultDistributedConfig())
	if err != nil {
		return err
	}
	experiments.PrintDistributed(os.Stdout, rows)
	var ehT, rwT int64
	for _, r := range rows {
		if r.Skipped || r.Eps != 0.10 || r.Query != 0 {
			continue
		}
		switch r.Algo {
		case window.AlgoEH:
			ehT = r.Transfer
		case window.AlgoRW:
			rwT = r.Transfer
		}
	}
	if ehT > 0 && rwT > 0 {
		fmt.Println("shape checks:")
		fmt.Println(experiments.CheckShape(
			fmt.Sprintf("RW transfer >= 10x EH at eps=0.1 (%.1fx)", float64(rwT)/float64(ehT)),
			rwT >= 10*ehT))
	}
	return nil
}

func runTable4(ds experiments.Dataset) error {
	header(fmt.Sprintf("Table 4 (%s): centralized vs distributed observed error", ds.Name))
	rows, err := experiments.RunCentralizedVsDistributed(ds, []float64{0.1, 0.2}, 0.1, 1000)
	if err != nil {
		return err
	}
	experiments.PrintRatios(os.Stdout, rows)
	ok := true
	for _, r := range rows {
		if r.Ratio > 2 {
			ok = false
		}
	}
	fmt.Println("shape checks:")
	fmt.Println(experiments.CheckShape("error inflation due to aggregation stays mild (ratio <= 2)", ok))
	return nil
}

func runFig6(ds experiments.Dataset) error {
	header(fmt.Sprintf("Figure 6 (%s): error and network cost vs number of nodes", ds.Name))
	rows, err := experiments.RunScaling(ds, 0.1, 0.1, 256, 800)
	if err != nil {
		return err
	}
	experiments.PrintScaling(os.Stdout, rows)
	return nil
}

func runHeavy(ds experiments.Dataset) error {
	header(fmt.Sprintf("Section 6.1 (%s): sliding-window heavy hitters via group testing", ds.Name))
	rows, err := experiments.RunHeavyHitters(ds, 0.02, []float64{0.005, 0.01, 0.02, 0.05}, 15)
	if err != nil {
		return err
	}
	experiments.PrintHeavyHitters(os.Stdout, rows)
	return nil
}

func runGeom(ds experiments.Dataset) error {
	header(fmt.Sprintf("Section 6.2 (%s): geometric threshold monitoring (self-join)", ds.Name))
	row, err := experiments.RunGeometric(ds, 4, 0.5, 50000)
	if err != nil {
		return err
	}
	experiments.PrintGeom(os.Stdout, row)
	return nil
}

func runAblation(ds experiments.Dataset) error {
	header(fmt.Sprintf("Ablation (%s): optimal vs point eps-split for self-join queries", ds.Name))
	rows, err := experiments.RunAblationSplit(ds, 0.1)
	if err != nil {
		return err
	}
	experiments.PrintAblationSplit(os.Stdout, rows)
	return nil
}
