// Command bench is the repository's one benchmark: four named workloads
// driven through the public entry points (ecmclient → loopback TCP →
// ecmserver → ecmsketch.Sharded → internal/durable, and internal/coord over
// ecmserver leaves), end-to-end metrics with tracing off, and a per-layer
// budget from a traced repeat of the same workload. See README.md here and
// BENCHMARK.json at the repository root.
//
//	go run ./bench [-workload <name>|all] [-seed N] [-seconds N] [-trace 0|1] [-runs N] [-out DIR]
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to the
// directory it is run from; the root .gitignore lists it.
const buildDir = ".bench_build"

var runners = map[string]func(*run) error{
	wlServeIngest:  runServeIngest,
	wlEngineIngest: runEngineIngest,
	wlServeRead:    runServeRead,
	wlCoordRefresh: runCoordRefresh,
}

// result is one invocation of one workload: the untraced pass, and with
// -trace 1 the traced pass and replays behind it.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// BudgetMs is the traced phase's self time by layer, and Closure the
	// share of the client spans' time that their own self time plus their
	// descendants' accounts for.
	BudgetMs map[string]float64 `json:"budget_ms,omitempty"`
	Closure  float64            `json:"closure,omitempty"`

	spans []span
}

// measure runs one workload: untraced, then (traced) once more under the
// tracer. End-to-end metrics always come from the untraced pass.
func measure(wl string, seed int64, dur time.Duration, sc scale, traced bool, tmp string) (*result, error) {
	res := &result{Workload: wl, Seed: seed, Seconds: dur.Seconds(), Traced: traced}
	plain := newRun(wl, seed, dur, sc, nil, tmp)
	plain.layers = traced
	if err := runners[wl](plain); err != nil {
		return nil, fmt.Errorf("%s: %w", wl, err)
	}
	res.absorb(plain)
	res.EndToEnd = plain.e2e
	if !traced {
		return res, nil
	}
	sc.setups = 1 // setup_s is the untraced pass's
	tr := newRun(wl, seed, dur, sc, newTracer(), tmp)
	if err := runners[wl](tr); err != nil {
		return nil, fmt.Errorf("%s (traced): %w", wl, err)
	}
	res.absorb(tr)
	res.PerLayer = make(map[string]value)
	for _, m := range perLayer {
		res.PerLayer[m.Name] = value{Unit: m.Unit} // 0: not on this workload's path
	}
	for _, pass := range []*run{tr, plain} {
		for name, v := range pass.layer {
			res.PerLayer[name] = v
		}
	}
	base, with := plain.e2e["ops_per_s"].Value, tr.e2e["ops_per_s"].Value
	res.PerLayer["trace.overhead_share"] = value{Value: (base - with) / base, Unit: unitOf("trace.overhead_share"), N: 1}
	res.PerLayer["failed_share"] = value{Value: float64(plain.failed.Load()) / float64(plain.attempted.Load()), Unit: unitOf("failed_share"), N: int(plain.attempted.Load())}

	res.spans = tr.tr.take()
	res.BudgetMs = make(map[string]float64)
	for layer, d := range layerBudget(res.spans) {
		res.BudgetMs[layer] = float64(d) / 1e6
	}
	res.Closure = closure(res.spans)
	return res, nil
}

func (res *result) absorb(r *run) {
	res.Attempted += r.attempted.Load()
	res.Failed += r.failed.Load()
	res.Failures = append(res.Failures, r.failures...)
}

// closure checks that the trace's parentage holds together: over the root
// spans that have children, the self times of each root and everything
// below it, summed, as a share of the roots' own durations. Concurrent
// children overlap, so the share can exceed 1; a broken parent link shows
// as a share well below it.
func closure(spans []span) float64 {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	below := make(map[int64]time.Duration) // by root: self time of the root and its descendants
	isParent := make(map[int64]bool)
	for _, s := range spans {
		root := s
		for p, ok := byID[root.Parent]; ok; p, ok = byID[root.Parent] {
			isParent[p.ID] = true
			root = p
		}
		below[root.ID] += self[s.ID]
	}
	var covered, total time.Duration
	for id, d := range below {
		if isParent[id] {
			covered += d
			total += byID[id].dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// print writes every metric as "name value unit", end-to-end first, then
// the driver's one-line JSON: end-to-end metrics untraced, per-layer traced.
func (res *result) print() {
	fmt.Printf("# %s seed=%d seconds=%g traced=%v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	line := func(m metric, v value) { fmt.Printf("%-44s %14.6g %-6s n=%d\n", m.Name, v.Value, v.Unit, v.N) }
	for _, m := range endToEnd {
		line(m, res.EndToEnd[m.Name])
	}
	out := res.EndToEnd
	if res.Traced {
		for _, m := range perLayer {
			line(m, res.PerLayer[m.Name])
		}
		layers := make([]string, 0, len(res.BudgetMs))
		for l := range res.BudgetMs {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Printf("# budget %-10s %12.3f ms self time\n", l, res.BudgetMs[l])
		}
		fmt.Printf("# budget closure %.3f\n", res.Closure)
		out = res.PerLayer
	}
	for _, f := range res.Failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]driverValue, len(out))
	for name, v := range out {
		metrics[name] = driverValue{v.Value, v.Unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	fmt.Println(string(b))
}

// header is what every results.json records about where it was taken.
type header struct {
	HostProcs  int     `json:"host_procs"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Runs       int     `json:"runs"`
}

type resultsFile struct {
	header
	Results []*result `json:"results"`
}

// commit names the source the numbers were taken on; a checkout that is not
// a git repository (the driver's) has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed     = flag.Int64("seed", 1, "seed of the workload generators (the sketch's hash seed is fixed)")
		seconds  = flag.Float64("seconds", 10, "length of each measured phase")
		trace    = flag.Int("trace", 1, "0: untraced pass, end-to-end metrics; 1: also the traced pass and replays, per-layer metrics")
		runs     = flag.Int("runs", 1, "repeat each workload this many times (a set of runs for -compare)")
		outDir   = flag.String("out", filepath.Join(buildDir, "out"), "directory for results.json and trace-<workload>.jsonl")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments and exit non-zero when they disagree beyond a bound")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	names := workloadNames()
	if *workload != "all" {
		if runners[*workload] == nil {
			fatal("unknown workload %q (want %s or all)", *workload, strings.Join(names, ", "))
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatal("-seconds and -runs must be positive and -trace 0 or 1")
	}
	dur := time.Duration(*seconds * float64(time.Second))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal("%v", err)
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal("%v", err)
	}
	file := resultsFile{header: header{
		HostProcs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Runs: *runs,
	}}
	failed := false
	for i := 0; i < *runs; i++ {
		for _, wl := range names {
			res, err := measure(wl, *seed, dur, fullScale, *trace == 1, tmp)
			if err != nil {
				os.RemoveAll(tmp)
				fatal("%v", err)
			}
			res.print()
			failed = failed || res.Failed > 0
			file.Results = append(file.Results, res)
			if res.Traced {
				if err := writeJSONL(filepath.Join(*outDir, "trace-"+wl+".jsonl"), res.spans); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
				}
			}
		}
	}
	os.RemoveAll(tmp)
	b, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*outDir, "results.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if failed {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
