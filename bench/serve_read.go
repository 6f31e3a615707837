package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
)

const (
	readWriteBatch = 256    // events per writer AddEvents: one 32-tick block
	readWriteRate  = 20_000 // events per second, open loop
	readBatchTicks = readWriteBatch / eventsPerTick
)

// readSystem is a memory-only ecmserver, so fsync noise stays out of reads.
type readSystem struct {
	*site
	writeRing, readRing []uint64
	preload             []ecmsketch.Event
}

func (r *run) buildReadSystem() (*readSystem, error) {
	sys := &readSystem{writeRing: newRing(r.seed, streamClient, r.sc.ringLen), readRing: newRing(r.seed, streamClient+1, r.sc.ringLen)}
	var err error
	sys.site, err = r.startSite(ecmserver.Config{
		Epsilon: opEpsilon, Delta: opDelta, WindowLength: opWindow, Algorithm: "eh", Seed: opHashSeed,
		Shards: opShards, MergeTTL: 250 * time.Millisecond,
	})
	if err != nil {
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

// ackLog is what the writer tells the reader: when each batch, numbered in
// tick order, was acknowledged (unix ns; 0 = not yet).
type ackLog struct {
	firstTick uint64 // batch i carries ticks (firstTick + i·32, firstTick + (i+1)·32]
	acked     []atomic.Int64
}

// staleness of a reply evaluated at tick now and sent at sent: the time
// since the oldest batch the reply does not reflect was acknowledged.
func (al *ackLog) staleness(now uint64, sent time.Time) time.Duration {
	if now < al.firstTick {
		now = al.firstTick
	}
	i := int((now - al.firstTick) / readBatchTicks) // first batch with a tick beyond now
	if i >= len(al.acked) {
		return 0
	}
	if at := al.acked[i].Load(); at != 0 && at < sent.UnixNano() {
		return time.Duration(sent.UnixNano() - at)
	}
	return 0
}

func runServeRead(r *run) error {
	sys, err := timeSetups(r, r.buildReadSystem)
	if err != nil {
		return err
	}
	defer sys.close()
	eng := sys.srv.Engine()
	firstTick := uint64(len(sys.preload) / eventsPerTick)
	interval := time.Second * readWriteBatch / readWriteRate
	acks := &ackLog{firstTick: firstTick, acked: make([]atomic.Int64, int(r.dur/interval)+2)}

	start := time.Now()
	var wg sync.WaitGroup

	// Connection A: open-loop writer. Each batch is due at a fixed time; a
	// late batch is sent at once and its lateness recorded.
	var late, gen samples
	written := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc, st := r.newClientHTTP()
		defer hc.CloseIdleConnections()
		cl := ecmclient.New(sys.url, ecmclient.WithHTTPClient(hc))
		evs := make([]ecmsketch.Event, readWriteBatch)
		pos := 0
		for i := 0; i < len(acks.acked); i++ {
			due := openLoopDue(start, interval, i)
			if due.Sub(start) >= r.dur {
				return
			}
			time.Sleep(time.Until(due))
			g0 := time.Now()
			pos = fillEvents(evs, sys.writeRing, pos, firstTick+uint64(i)*readBatchTicks)
			sent := time.Now()
			gen.add(sent.Sub(g0))
			late.add(lateness(due, sent))
			var sp span
			if r.tr != nil {
				sp = span{ID: r.tr.id(), Layer: "ecmclient", Name: "addevents", Start: r.tr.now(), N: readWriteBatch}
				st.cur = sp.ID
			}
			err := cl.AddEvents(evs)
			if r.tr != nil {
				r.tr.record(sp)
			}
			r.op(err)
			if err != nil {
				return // a gap in the tick sequence would void the staleness reading
			}
			acks.acked[i].Store(time.Now().UnixNano())
			written += readWriteBatch
		}
	}()

	// Connection B: closed-loop reader cycling the three query kinds.
	lat := map[string]*samples{}
	for _, k := range readKinds {
		lat[k] = &samples{}
	}
	var stale, rebuildMs samples
	rate := newRateCounter(start, r.dur)
	rebuilds0 := eng.ViewRebuilds()
	cpu0 := cpuTime()
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc, st := r.newClientHTTP()
		defer hc.CloseIdleConnections()
		if st != nil {
			r.bodies = st.bodies // read after wg.Wait
		}
		cl := ecmclient.New(sys.url, ecmclient.WithHTTPClient(hc))
		pos := 0
		keys := func(n int) []uint64 {
			if pos+n > len(sys.readRing) {
				pos = 0
			}
			pos += n
			return sys.readRing[pos-n : pos]
		}
		seenRebuilds := rebuilds0
		for time.Since(start) < r.dur {
			for _, kind := range readKinds {
				var q ecmsketch.QueryBatch
				switch kind {
				case "direct16":
					q = ecmsketch.QueryBatch{Keys: keys(16), Range: opWindow}
				case "merged64":
					q = ecmsketch.QueryBatch{Keys: keys(64)}
				case "agg":
					q = ecmsketch.QueryBatch{Range: opWindow / 2, Total: true, SelfJoin: true}
				}
				var sp span
				if r.tr != nil {
					sp = span{ID: r.tr.id(), Layer: "ecmclient", Name: kind, Start: r.tr.now(), N: int64(len(q.Keys))}
					st.cur, st.keepAs = sp.ID, kind
				}
				sent := time.Now()
				var res ecmsketch.QueryResult
				var err error
				if kind == "direct16" {
					res, err = cl.QueryDirect(q)
				} else {
					res, err = cl.QueryBatch(q)
				}
				done := time.Now()
				if r.tr != nil {
					r.tr.record(sp)
				}
				r.op(err)
				if err != nil {
					continue
				}
				lat[kind].add(done.Sub(sent))
				rate.add(1, done)
				if kind == "agg" {
					// A view built while a batch is being applied carries the
					// batch's clock but may miss its events.
					exact := exactTotal(opWindow/2, res.Now, eventsPerTick)
					r.gate(math.Abs(res.Total-exact) <= opEpsilon*exact+readWriteBatch, "agg reply: total %.0f not within ε of %.0f", res.Total, exact)
					stale.add(acks.staleness(res.Now, sent))
					if n := eng.ViewRebuilds(); r.tr != nil && n != seenRebuilds {
						seenRebuilds = n
						ns, _ := eng.RebuildStats()
						rebuildMs.add(time.Duration(ns))
					}
				}
			}
		}
	}()
	wg.Wait()
	phase := time.Since(start)
	cpu := cpuTime() - cpu0
	rebuilds := eng.ViewRebuilds() - rebuilds0

	all := merged(*lat["direct16"], *lat["merged64"], *lat["agg"])
	if len(all) == 0 {
		return fmt.Errorf("serve-read: no read completed")
	}
	perSec, bins := rate.perSecond(phase)
	r.setE2E("ops_per_s", perSec, bins)
	r.setE2E("cpu_ns_per_op", float64(cpu)/float64(len(all)), len(all))
	r.setE2E("op_p50_ms", quantile(all, 0.5)/1e6, len(all))
	if r.layers {
		for _, k := range readKinds {
			sorted := merged(*lat[k])
			r.setLayer(k+"_p50_us", quantile(sorted, 0.5)/1e3, len(sorted))
			r.setTail("ecmclient."+k+"_p99_us", sorted, 0.99, 1e3)
		}
		r.setLayer("staleness_p50_ms", median(stale)/1e6, len(stale))
		r.setLayer("workload.write_late_p50_ms", median(late)/1e6, len(late))
	}

	want := uint64(len(sys.preload) + written)
	r.gate(eng.Count() == want, "Count %d != preload + accepted = %d", eng.Count(), want)
	r.gateStats(sys.url, want)
	r.gateTotal(eng, opWindow/2, eventsPerTick, opEpsilon)

	if r.tr != nil {
		r.setLayer("workload.gen_ns_per_event", mean(gen)/readWriteBatch, len(gen))
		r.setLayer("sharded.view_rebuilds", float64(rebuilds), 1)
		if rebuilds > 0 {
			r.setLayer("sharded.view_period_ms", phase.Seconds()*1e3/float64(rebuilds), int(rebuilds))
		}
		r.setLayer("sharded.rebuild_merge_ms", median(rebuildMs)/1e6, len(rebuildMs))
		r.readLayers(eng)
	}
	return nil
}

// readLayers derives serve-read's per-layer metrics from the traced phase
// and from replaying its recorded request bodies into each lower layer.
func (r *run) readLayers(eng *ecmsketch.Sharded) {
	ix := indexSpans(r.tr.take())
	rep := r.replayReads(eng)
	for _, kind := range readKinds {
		client := ix.durations("ecmclient", kind)
		var handler samples
		for _, s := range ix.childrenOf("ecmserver", "ecmclient", kind) {
			handler.add(s.dur())
		}
		handleUs := median(handler) / 1e3
		r.setLayer("ecmclient.query_overhead_us."+kind, (mean(client)-mean(handler))/1e3, len(client))
		r.setLayer("ecmserver.query_handle_us."+kind, handleUs, len(handler))
		r.setLayer("ecmserver.query_encode_us."+kind, handleUs-rep.engine[kind]-rep.parse[kind], len(handler))
	}
}
