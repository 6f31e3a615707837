package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"ecmsketch"
)

const (
	engineWriters    = 2
	engineBatch      = 1024
	engineBlockTicks = engineBatch / eventsPerTick
)

// engineSystem is the library write path: a memory-only Sharded.
type engineSystem struct {
	eng     *ecmsketch.Sharded
	rings   [engineWriters][]uint64
	preload []ecmsketch.Event
}

func (sys *engineSystem) close() { sys.eng.Close() }

func (r *run) buildEngineSystem() (*engineSystem, error) {
	sys := &engineSystem{}
	for i := range sys.rings {
		sys.rings[i] = newRing(r.seed, streamClient+i, r.sc.ringLen)
	}
	eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
		Params: params(opEpsilon, opDelta, opWindow), Shards: opShards, MergeTTL: 250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	sys.eng = eng
	sys.preload = preloadEvents(r.seed, streamPreload, r.preloadTicks(opWindow)*eventsPerTick)
	preload(eng, sys.preload)
	ratio, err := r.accuracy(eng, sys.preload, opWindow, opWindow/2, opEpsilon)
	if err != nil {
		return nil, err
	}
	r.reportAccuracy(ratio, 512)
	return sys, nil
}

// enginePhase is one closed-loop AddBatch phase with the given writers.
type enginePhase struct {
	calls    []samples
	gen      []samples
	batches  [][]ecmsketch.Event
	applied  int
	perSec   float64
	bins     int
	cpu      time.Duration
	duration time.Duration
}

func (r *run) enginePhase(sys *engineSystem, clock *tickClock, writers int, d time.Duration) enginePhase {
	ph := enginePhase{calls: make([]samples, writers), gen: make([]samples, writers)}
	kept := make([][][]ecmsketch.Event, writers)
	sent := make([]int, writers)
	start := time.Now()
	rate := newRateCounter(start, d)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs := make([]ecmsketch.Event, engineBatch)
			pos := 0
			for time.Since(start) < d {
				g0 := time.Now()
				pos = fillEvents(evs, sys.rings[w], pos, clock.claim(engineBlockTicks))
				ph.gen[w].add(time.Since(g0))
				var sp span
				if r.tr != nil {
					if len(kept[w]) < r.sc.replayKeep/writers {
						kept[w] = append(kept[w], slices.Clone(evs))
					}
					sp = span{ID: r.tr.id(), Layer: "sharded", Name: "addbatch", Start: r.tr.now(), N: engineBatch}
				}
				t0 := time.Now()
				sys.eng.AddBatch(evs)
				done := time.Now()
				if r.tr != nil {
					r.tr.record(sp)
				}
				r.attempted.Add(1)
				ph.calls[w].add(done.Sub(t0))
				sent[w] += engineBatch
				rate.add(engineBatch, done)
			}
		}()
	}
	wg.Wait()
	ph.duration = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	for w := range sent {
		ph.applied += sent[w]
		ph.batches = append(ph.batches, kept[w]...)
	}
	ph.perSec, ph.bins = rate.perSecond(ph.duration)
	return ph
}

func runEngineIngest(r *run) error {
	sys, err := timeSetups(r, r.buildEngineSystem)
	if err != nil {
		return err
	}
	defer sys.close()
	var clock tickClock
	clock.next.Store(uint64(len(sys.preload) / eventsPerTick))

	ph := r.enginePhase(sys, &clock, engineWriters, r.dur)
	if ph.applied == 0 {
		return fmt.Errorf("engine-ingest: no batch was applied")
	}
	applied := ph.applied
	sorted := merged(ph.calls...)
	r.setE2E("ops_per_s", ph.perSec, ph.bins)
	r.setE2E("cpu_ns_per_op", float64(ph.cpu)/float64(ph.applied), ph.applied)
	r.setE2E("op_p50_ms", quantile(sorted, 0.5)/1e6, len(sorted))

	// One writer on the same engine gives the scaling ratio; with a single
	// processor the two-writer figure is not a scaling measurement at all.
	if r.layers && runtime.GOMAXPROCS(0) > 1 {
		one := r.enginePhase(sys, &clock, 1, r.dur/4)
		applied += one.applied
		if one.perSec > 0 {
			r.setLayer("sharded.writer_scaling", ph.perSec/one.perSec, one.bins)
		}
	}

	want := uint64(len(sys.preload) + applied)
	r.gate(sys.eng.Count() == want, "Count %d != preload + applied = %d", sys.eng.Count(), want)
	r.gateTotal(sys.eng, opWindow/2, eventsPerTick, opEpsilon)

	if r.tr != nil {
		r.setLayer("workload.gen_ns_per_event", mean(ph.gen...)/engineBatch, len(sorted))
		r.replayIngest(ph.batches, sys.preload, false)
	}
	return nil
}
