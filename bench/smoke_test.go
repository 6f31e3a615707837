package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

var smokeScale = scale{preloadDiv: 64, ringLen: 1 << 14, setups: 1, crashCycles: 2, crashBatches: 8, replayKeep: 100}

// TestSmoke runs every workload, untraced and traced, through the code path
// the driver uses, and checks that exactly the workload and metric names of
// BENCHMARK.json come out, each with its unit, so the file and the code
// cannot drift.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bf.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads %v differ from spec.go's %v", bf.Workloads, workloads)
	}
	if !slices.Equal(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v differs from spec.go's %v", bf.EndToEnd, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from spec.go's")
	}
	if !slices.Equal(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 {
		t.Errorf("BENCHMARK.json paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}

	// The phases are wall-clock bound, so the workloads run side by side
	// (all of them, whatever -parallel says) to fit the suite's time; only
	// names and correctness gates are asserted, never a timing.
	type outcome struct {
		res *result
		err error
	}
	outcomes := make([]outcome, len(bf.Workloads))
	var wg sync.WaitGroup
	for i, wl := range bf.Workloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := measure(wl.Name, 1, 300*time.Millisecond, smokeScale, true, t.TempDir())
			outcomes[i] = outcome{res, err}
		}()
	}
	wg.Wait()
	for i, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, err := outcomes[i].res, outcomes[i].err
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d operations and checks failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			checkNames(t, "end-to-end", res.EndToEnd, bf.EndToEnd)
			checkNames(t, "per-layer", res.PerLayer, bf.PerLayer)
			for name, v := range res.EndToEnd {
				if !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v; an end-to-end metric is never 0", name, v.Value)
				}
			}
			if len(res.spans) == 0 {
				t.Error("the traced pass recorded no span")
			}
		})
	}
}

func checkNames(t *testing.T, kind string, got map[string]value, want []metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d %s metrics emitted, BENCHMARK.json lists %d", len(got), kind, len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s metric %s is in BENCHMARK.json but was not emitted", kind, m.Name)
		} else if v.Unit != m.Unit || v.Unit == "" {
			t.Errorf("%s metric %s emitted with unit %q, BENCHMARK.json says %q", kind, m.Name, v.Unit, m.Unit)
		}
	}
}
