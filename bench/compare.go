package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareFiles prints, per workload and end-to-end metric, the median of
// each file's runs, their relative difference and the metric's bound. It
// returns the process exit code: 1 when any difference exceeds its bound —
// in either direction, because two sets of runs of the same code must agree,
// whichever is the better one — and 2 when a file cannot be compared.
func compareFiles(pathA, pathB string) int {
	a, errA := loadMedians(pathA)
	b, errB := loadMedians(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	code := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, okA := a[wl.Name][m.Name]
			vb, okB := b[wl.Name][m.Name]
			if !okA || !okB {
				continue
			}
			diff := (vb - va) / va
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict = "  EXCEEDS"
				if (diff > 0) == (m.Better == "lower") {
					verdict += " (B worse)"
				} else {
					verdict += " (B better)"
				}
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wl.Name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}

// loadMedians reads a results.json and reduces each workload's runs to the
// median of every end-to-end metric.
func loadMedians(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultsFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := make(map[string]map[string][]float64)
	for _, res := range file.Results {
		if vals[res.Workload] == nil {
			vals[res.Workload] = make(map[string][]float64)
		}
		for name, v := range res.EndToEnd {
			vals[res.Workload][name] = append(vals[res.Workload][name], v.Value)
		}
	}
	out := make(map[string]map[string]float64)
	for wl, byName := range vals {
		out[wl] = make(map[string]float64)
		for name, vs := range byName {
			sort.Float64s(vs)
			out[wl][name] = quantile(vs, 0.5)
		}
	}
	return out, nil
}
