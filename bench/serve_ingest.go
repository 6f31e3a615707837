package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
)

const (
	ingestClients    = 2
	ingestBatch      = 512 // events per AddEvents: one 64-tick block
	ingestBlockTicks = ingestBatch / eventsPerTick
	walSyncInterval  = 5 * time.Millisecond
	crashProbeKeys   = 256
)

// ingestSystem is the deployed write path: a durable ecmserver on loopback.
type ingestSystem struct {
	*site
	cfg      ecmserver.Config
	rings    [ingestClients][]uint64
	preload  []ecmsketch.Event
	storeErr atomic.Int64
}

func (sys *ingestSystem) close() {
	sys.site.close()
	os.RemoveAll(sys.cfg.DataDir)
}

func (r *run) buildIngestSystem() (*ingestSystem, error) {
	sys := &ingestSystem{}
	for i := range sys.rings {
		sys.rings[i] = newRing(r.seed, streamClient+i, r.sc.ringLen)
	}
	dir, err := r.mkdir("serve-ingest")
	if err != nil {
		return nil, err
	}
	sys.cfg = ecmserver.Config{
		Epsilon: opEpsilon, Delta: opDelta, WindowLength: opWindow, Algorithm: "eh", Seed: opHashSeed,
		Shards: opShards, MergeTTL: 250 * time.Millisecond,
		DataDir: dir, WALSyncInterval: walSyncInterval,
		// Scaled with the run so two periodic checkpoints land inside it.
		SnapshotInterval: r.dur / 3,
	}
	if r.tr != nil {
		fs, err := ecmsketch.NewFileStore(dir)
		if err != nil {
			return nil, err
		}
		sys.cfg.DurableStore = tracedStore{DurableStore: fs, t: r.tr, errs: &sys.storeErr}
	}
	if sys.site, err = r.startSite(sys.cfg); err != nil {
		return nil, err
	}
	sys.preload = preloadEvents(r.seed, streamPreload, r.preloadTicks(opWindow)*eventsPerTick)
	preload(sys.srv.Engine(), sys.preload)
	ratio, err := r.accuracy(sys.srv.Engine(), sys.preload, opWindow, opWindow/2, opEpsilon)
	if err != nil {
		sys.close()
		return nil, err
	}
	r.reportAccuracy(ratio, 512)
	return sys, nil
}

func runServeIngest(r *run) error {
	sys, err := timeSetups(r, r.buildIngestSystem)
	if err != nil {
		return err
	}
	httpUp := true
	defer func() {
		if httpUp {
			sys.stopHTTP()
		}
		sys.srv.Close()
		os.RemoveAll(sys.cfg.DataDir)
	}()
	eng := sys.srv.Engine()
	preloaded := uint64(len(sys.preload))
	r.gate(eng.Count() == preloaded, "preload: Count %d != %d", eng.Count(), preloaded)

	var clock tickClock
	clock.next.Store(uint64(len(sys.preload) / eventsPerTick))
	type clientOut struct {
		acks, gen samples
		sent      int
		batches   [][]ecmsketch.Event
	}
	outs := make([]clientOut, ingestClients)
	start := time.Now()
	rate := newRateCounter(start, r.dur)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			hc, st := r.newClientHTTP()
			cl := ecmclient.New(sys.url, ecmclient.WithHTTPClient(hc))
			defer hc.CloseIdleConnections()
			evs := make([]ecmsketch.Event, ingestBatch)
			pos := 0
			for time.Since(start) < r.dur {
				g0 := time.Now()
				pos = fillEvents(evs, sys.rings[c], pos, clock.claim(ingestBlockTicks))
				out.gen.add(time.Since(g0))
				var sp span
				if r.tr != nil {
					if len(out.batches) < r.sc.replayKeep/ingestClients {
						out.batches = append(out.batches, slices.Clone(evs))
					}
					sp = span{ID: r.tr.id(), Layer: "ecmclient", Name: "addevents", Start: r.tr.now(), N: ingestBatch}
					st.cur = sp.ID
				}
				t0 := time.Now()
				err := cl.AddEvents(evs)
				done := time.Now()
				if r.tr != nil {
					r.tr.record(sp)
				}
				r.op(err)
				if err == nil {
					out.acks.add(done.Sub(t0))
					out.sent += ingestBatch
					rate.add(ingestBatch, done)
				}
			}
		}()
	}
	wg.Wait()
	phase := time.Since(start)
	cpu := cpuTime() - cpu0

	var acks, gen []samples
	accepted := 0
	var batches [][]ecmsketch.Event
	for i := range outs {
		acks, gen = append(acks, outs[i].acks), append(gen, outs[i].gen)
		accepted += outs[i].sent
		batches = append(batches, outs[i].batches...)
	}
	if accepted == 0 {
		return fmt.Errorf("serve-ingest: no batch was acknowledged")
	}
	sorted := merged(acks...)
	perSec, bins := rate.perSecond(phase)
	r.setE2E("ops_per_s", perSec, bins)
	r.setE2E("cpu_ns_per_op", float64(cpu)/float64(accepted), accepted)
	r.setE2E("op_p50_ms", quantile(sorted, 0.5)/1e6, len(sorted))
	if r.layers {
		r.setTail("ecmclient.ack_p99_ms", sorted, 0.99, 1e6)
	}

	// Correctness of the phase, read through the API and in process.
	want := preloaded + uint64(accepted)
	r.gate(eng.Count() == want, "Count %d != preload + accepted = %d", eng.Count(), want)
	r.gateStats(sys.url, want)
	r.gateTotal(eng, opWindow/2, eventsPerTick, opEpsilon)

	sys.stopHTTP()
	httpUp = false
	recoverTimes, ckptTimes, replayed, err := r.crashCycles(sys, &clock)
	if err != nil {
		return err
	}
	if r.layers {
		r.setLayer("recover_ms", median(recoverTimes)/1e6, len(recoverTimes))
	}
	if r.tr != nil {
		r.ingestLayers(sys, batches, accepted, gen, ckptTimes, replayed)
	}
	return nil
}

// crashCycles checkpoints, feeds a fixed WAL tail in process, crashes and
// times the restart, checking each time that recovery reproduced the
// pre-crash reading. The cycles run on servers without the periodic
// checkpoint (the first is a clean restart of the phase's server), so the
// replayed tail is exactly the batches fed since the explicit checkpoint.
func (r *run) crashCycles(sys *ingestSystem, clock *tickClock) (recoverTimes, ckptTimes samples, replayed uint64, err error) {
	cfg := sys.cfg
	cfg.SnapshotInterval = 0
	probe := ecmsketch.QueryBatch{Keys: sys.rings[0][:crashProbeKeys], Range: opWindow}
	evs := make([]ecmsketch.Event, ingestBatch)
	pos := 0
	if err := sys.srv.Close(); err != nil {
		return nil, nil, 0, fmt.Errorf("closing the phase's server: %w", err)
	}
	srv, err := ecmserver.New(cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("clean restart: %w", err)
	}
	sys.srv = srv
	for cycle := 0; cycle < r.sc.crashCycles; cycle++ {
		eng := srv.Engine()
		c0 := time.Now()
		if err := eng.Checkpoint(); err != nil {
			return nil, nil, 0, fmt.Errorf("checkpoint: %w", err)
		}
		ckptTimes.add(time.Since(c0))
		for b := 0; b < r.sc.crashBatches; b++ {
			pos = fillEvents(evs, sys.rings[1], pos, clock.claim(ingestBlockTicks))
			eng.AddBatch(evs)
		}
		eng.Flush()
		before, qerr := eng.QueryDirect(probe)
		r.op(qerr)
		count := eng.Count()
		eng.CloseAbrupt()

		t0 := time.Now()
		srv, err = ecmserver.New(cfg)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("restart %d: %w", cycle, err)
		}
		recoverTimes.add(time.Since(t0))
		sys.srv = srv // the deferred Close shuts the last one down

		eng = srv.Engine()
		ds := eng.DurabilityStats()
		replayed = ds.ReplayedRecords
		r.gate(ds.Recovered && ds.ReplayedRecords > 0, "restart %d: recovered=%v replayed=%d", cycle, ds.Recovered, ds.ReplayedRecords)
		after, qerr := eng.QueryDirect(probe)
		r.op(qerr)
		r.gate(eng.Count() == count && slices.Equal(after.Estimates, before.Estimates),
			"restart %d: recovered state differs from the pre-crash reading", cycle)
	}
	return recoverTimes, ckptTimes, replayed, nil
}

// ingestLayers derives serve-ingest's per-layer metrics from the traced
// phase and from replaying its recorded batches into each lower layer.
func (r *run) ingestLayers(sys *ingestSystem, batches [][]ecmsketch.Event, accepted int, gen []samples, ckptTimes samples, replayed uint64) {
	ix := indexSpans(r.tr.take())
	client := ix.durations("ecmclient", "addevents")
	handler := ix.durations("ecmserver", "/v1/events")
	handlePerEvent := mean(handler) / ingestBatch
	r.setLayer("workload.gen_ns_per_event", mean(gen...)/ingestBatch, len(client))
	r.setLayer("ecmclient.addevents_overhead_ns_per_event", (mean(client)-mean(handler))/ingestBatch, len(client))
	r.setLayer("ecmserver.events_handle_ns_per_event", handlePerEvent, len(handler))

	appends := ix.durations("durable", "append")
	syncs := ix.durations("durable", "sync")
	events := float64(accepted + r.sc.crashCycles*r.sc.crashBatches*ingestBatch + len(sys.preload))
	appendNs, _ := total(appends)
	r.setLayer("durable.append_ns_per_event", appendNs/events, len(appends))
	r.setLayer("durable.append_bytes_per_event", float64(ix.sumN("durable", "append"))/events, len(appends))
	r.setLayer("durable.sync_p50_ms", median(syncs)/1e6, len(syncs))
	r.setLayer("durable.sync_count", float64(len(syncs)), len(syncs))
	saves, loads := ix.durations("durable", "save"), ix.durations("durable", "load")
	r.setLayer("durable.save_ms", median(saves)/1e6, len(saves))
	r.setLayer("durable.load_ms", median(loads)/1e6, len(loads))
	r.setLayer("durable.errors", float64(sys.storeErr.Load()), 1)
	r.setLayer("durable.checkpoint_ms", median(ckptTimes)/1e6, len(ckptTimes))
	r.setLayer("durable.replayed_records", float64(replayed), 1)

	rep := r.replayIngest(batches, sys.preload, true)
	r.setLayer("ecmserver.events_parse_ns_per_event", handlePerEvent-rep.durable, len(handler))
}
