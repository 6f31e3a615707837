package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"time"

	"ecmsketch"
	"ecmsketch/internal/hashing"
	"ecmsketch/internal/wire"
)

// The replay passes run after a traced phase: the inputs the phase recorded
// are fed again, single-threaded, into the public functions of each lower
// layer, so a layer's cost is read on exactly the inputs the system saw and
// neighbouring layers are separated by subtraction.

// ingestReplay holds ns per event of each layer under the same batches.
type ingestReplay struct{ durable, memory, bare, hash float64 }

// replayIngest feeds the recorded batches to a durable twin engine (only
// when withWAL), a memory-only twin, a bare Sketch and the hash family
// alone. Every twin is preloaded like the system was, so cells are as full
// and expiry as active as they were in the phase.
func (r *run) replayIngest(batches [][]ecmsketch.Event, preloadEvs []ecmsketch.Event, withWAL bool) ingestReplay {
	// Concurrent clients claim tick blocks out of order; the engine saw them
	// roughly in tick order.
	sort.SliceStable(batches, func(i, j int) bool { return batches[i][0].Tick < batches[j][0].Tick })
	events := 0
	for _, b := range batches {
		events += len(b)
	}
	if events == 0 {
		return ingestReplay{}
	}
	perEvent := func(apply func([]ecmsketch.Event)) float64 {
		t0 := time.Now()
		for _, b := range batches {
			apply(b)
		}
		return float64(time.Since(t0)) / float64(events)
	}
	p := params(opEpsilon, opDelta, opWindow)
	cfg := ecmsketch.ShardedConfig{Params: p, Shards: opShards, MergeTTL: 250 * time.Millisecond}
	var rep ingestReplay

	if mem, err := ecmsketch.NewSharded(cfg); err != nil {
		r.fail("replay: memory twin: %v", err)
	} else {
		preload(mem, preloadEvs)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep.memory = perEvent(mem.AddBatch)
		runtime.ReadMemStats(&m1)
		r.setLayer("sharded.addbatch_ns_per_event", rep.memory, len(batches))
		r.setLayer("sharded.addbatch_allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(events), len(batches))
		mem.Close()
	}

	if withWAL {
		if dir, err := r.mkdir("twin"); err != nil {
			r.fail("replay: durable twin: %v", err)
		} else {
			defer os.RemoveAll(dir)
			store, err := ecmsketch.NewFileStore(dir)
			if err == nil {
				cfg.Durability = &ecmsketch.DurabilityConfig{Store: store, SyncInterval: walSyncInterval}
				var dur *ecmsketch.Sharded
				if dur, err = ecmsketch.NewSharded(cfg); err == nil {
					preload(dur, preloadEvs)
					rep.durable = perEvent(dur.AddBatch)
					dur.Close()
				}
			}
			if err != nil {
				r.fail("replay: durable twin: %v", err)
			}
			r.setLayer("sharded.addbatch_durable_ns_per_event", rep.durable, len(batches))
			r.setLayer("durable.wal_overhead_ns_per_event", rep.durable-rep.memory, len(batches))
		}
	}

	bare, err := ecmsketch.New(p)
	if err != nil {
		r.fail("replay: bare sketch: %v", err)
		return rep
	}
	preload(bare, preloadEvs)
	rep.bare = perEvent(bare.AddBatch)
	r.setLayer("core.addbatch_ns_per_event", rep.bare, len(batches))
	r.setLayer("sharded.route_overhead_ns_per_event", rep.memory-rep.bare, len(batches))

	fam, err := hashing.NewFamily(opHashSeed, bare.Depth(), bare.Width())
	if err != nil {
		r.fail("replay: hash family: %v", err)
		return rep
	}
	depth := fam.Depth()
	rep.hash = perEvent(func(b []ecmsketch.Event) {
		for _, ev := range b {
			k := hashing.Fold(ev.Key)
			for i := 0; i < depth; i++ {
				hashSink += fam.HashFolded(i, k)
			}
		}
	})
	r.setLayer("hashing.hash_ns_per_event", rep.hash, len(batches))
	r.setLayer("window.bank_apply_ns_per_event", rep.bare-rep.hash, len(batches))
	return rep
}

// hashSink keeps the hashing replay from being optimized away.
var hashSink int

// readReplay holds the median µs of each lower layer per read kind.
type readReplay struct{ parse, engine map[string]float64 }

// replayReads parses the request bodies the traced reader sent and runs the
// parsed queries in process on the quiesced engine and on a bare Sketch
// snapshot of it.
func (r *run) replayReads(eng *ecmsketch.Sharded) readReplay {
	rep := readReplay{parse: make(map[string]float64), engine: make(map[string]float64)}
	snap, err := eng.Snapshot() // also publishes a fresh merged view
	if err != nil {
		r.fail("replay: snapshot: %v", err)
		return rep
	}
	engineMetric := map[string]string{"direct16": "sharded.querydirect_us", "merged64": "sharded.querybatch_us", "agg": "sharded.queryagg_us"}
	for _, kind := range readKinds {
		var parse, engine, bare samples
		keys := 0
		for _, body := range r.bodies[kind] {
			t0 := time.Now()
			q, err := wire.ParseQueryBody(bytes.NewReader(body))
			parse.add(time.Since(t0))
			if err != nil {
				r.fail("replay: recorded %s body does not parse: %v", kind, err)
				break
			}
			t0 = time.Now()
			if kind == "direct16" {
				_, err = eng.QueryDirect(q)
			} else {
				_, err = eng.QueryBatch(q)
			}
			engine.add(time.Since(t0))
			if err != nil {
				r.fail("replay: %s in process: %v", kind, err)
				break
			}
			if kind != "direct16" {
				t0 = time.Now()
				snap.QueryBatch(q)
				bare.add(time.Since(t0))
				keys += len(q.Keys)
			}
		}
		rep.parse[kind], rep.engine[kind] = median(parse)/1e3, median(engine)/1e3
		r.setLayer("wire.parse_query_us."+kind, rep.parse[kind], len(parse))
		r.setLayer(engineMetric[kind], rep.engine[kind], len(engine))
		switch kind {
		case "merged64":
			if keys > 0 {
				ns, _ := total(bare)
				r.setLayer("core.estimate_ns_per_key", ns/float64(keys), len(bare))
			}
		case "agg":
			r.setLayer("core.selfjoin_us", median(bare)/1e3, len(bare))
		}
	}
	return rep
}

// replayPulls applies every payload a site handed its coordinator, in
// order, to a fresh receiver state: DeltaState.Apply alone, without the
// transport before it or the root patch after it.
func (r *run) replayPulls(sites []*tracedSite) {
	apply := map[string]*samples{"sparse": {}, "dense": {}}
	var bytesIn, cells int
	for _, s := range sites {
		var ds ecmsketch.DeltaState
		for _, p := range s.pulls {
			t0 := time.Now()
			err := ds.Apply(p.payload, p.cur, p.full)
			d := time.Since(t0)
			if err != nil {
				r.fail("replay: applying a recorded payload of %s: %v", s.Name(), err)
				break
			}
			changed, all := ds.TakeChangedCells()
			if p.full || apply[p.regime] == nil {
				continue
			}
			apply[p.regime].add(d)
			if !all {
				bytesIn += len(p.payload)
				cells += len(changed)
			}
		}
	}
	for regime, s := range apply {
		r.setLayer("core.delta_apply_ms."+regime, median(*s)/1e6, len(*s))
	}
	if cells > 0 {
		r.setLayer("core.delta_bytes_per_changed_cell", float64(bytesIn)/float64(cells), cells)
	}
}
