package main

import (
	"bytes"
	"fmt"
	"time"

	"ecmsketch"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/workload"
)

const (
	coordLeaves = 8
	coordFanIn  = 4
	coordEps    = 0.05 // ε = δ
	coordShards = 2
	// No bucket may expire during the run: both production callers of
	// core.PatchMerged pass a nil note, which panics the first time an
	// unpatched cell drops an expired bucket (see README, Known defects).
	coordWindow      = 1 << 20
	coordLeafPreload = 1 << 17 // events per leaf
	sparseEvents     = 16      // per leaf per round: pull/HTTP-overhead bound
	denseEvents      = 2048    // per leaf per round: decode/patch bound
	sparseShare      = 0.4     // of the phase's time
)

// coordTree is two mid coordinators over the leaves and a root over the
// mids, every one configured like `ecmcoord -serve` defaults.
type coordTree struct {
	mids  []*ecmsketch.Coordinator
	root  *ecmsketch.Coordinator
	sites []*tracedSite // every member, on traced runs
}

func (t *coordTree) all() []*ecmsketch.Coordinator {
	return append(t.mids[:len(t.mids):len(t.mids)], t.root)
}

func buildTree(leaves []*site, tr *tracer, keep int) *coordTree {
	t := &coordTree{}
	wrap := func(s ecmsketch.Site) ecmsketch.Site {
		if tr == nil {
			return s
		}
		ts := &tracedSite{Site: s, t: tr, keep: keep}
		t.sites = append(t.sites, ts)
		return ts
	}
	serveDefaults := func(c *ecmsketch.Coordinator) *ecmsketch.Coordinator {
		c.SetDeltaPulls(true)
		c.SetResilient(true)
		return c
	}
	var top []ecmsketch.Site
	for m := 0; m < len(leaves); m += coordFanIn {
		var members []ecmsketch.Site
		for _, leaf := range leaves[m:min(m+coordFanIn, len(leaves))] {
			members = append(members, wrap(ecmsketch.NewHTTPSite(leaf.url, nil)))
		}
		mid := serveDefaults(ecmsketch.NewCoordinator(members...))
		t.mids = append(t.mids, mid)
		top = append(top, wrap(ecmsketch.NewLocalSite(fmt.Sprintf("mid%d", len(t.mids)-1), mid)))
	}
	t.root = serveDefaults(ecmsketch.NewCoordinator(top...))
	return t
}

// sweepTimes is one sweep: each mid's Refresh, then the root's.
type sweepTimes struct {
	mids []time.Duration
	root time.Duration
}

func (st sweepTimes) total() time.Duration {
	d := st.root
	for _, m := range st.mids {
		d += m
	}
	return d
}

// sweep refreshes the tree bottom-up. A resilient coordinator reports a
// failed pull as a stale or excluded member, not an error, so both count.
func (r *run) sweep(t *coordTree) sweepTimes {
	refresh := func(c *ecmsketch.Coordinator, name string) time.Duration {
		var sp span
		if r.tr != nil {
			sp = span{ID: r.tr.id(), Layer: "coord", Name: r.tr.tagged(name), Start: r.tr.now()}
			r.tr.openRefresh.Store(sp.ID)
		}
		t0 := time.Now()
		err := c.Refresh()
		d := time.Since(t0)
		if r.tr != nil {
			r.tr.openRefresh.Store(0)
			sp.N = int64(c.LastRefresh().ChangedCells)
			r.tr.record(sp)
		}
		r.op(err)
		if lr := c.LastRefresh(); err == nil && (lr.Stale > 0 || lr.Excluded > 0) {
			r.fail("%s: refresh served %d stale and %d excluded members", name, lr.Stale, lr.Excluded)
		}
		return d
	}
	var st sweepTimes
	for _, m := range t.mids {
		st.mids = append(st.mids, refresh(m, "mid_refresh"))
	}
	st.root = refresh(t.root, "root_refresh")
	return st
}

type coordSystem struct {
	leaves  []*site
	rings   [][]uint64
	tree    *coordTree
	ticks   uint64 // every leaf has seen eventsPerTick events on each tick up to here
	fed     uint64 // events fed to all leaves together
	ringPos int
}

func (sys *coordSystem) close() {
	for _, l := range sys.leaves {
		l.close()
	}
}

// feed gives every leaf n more events, in process, on the same new ticks.
func (sys *coordSystem) feed(evs []ecmsketch.Event, n int) {
	if sys.ringPos+n > len(sys.rings[0]) {
		sys.ringPos = 0
	}
	for i, leaf := range sys.leaves {
		fillEvents(evs[:n], sys.rings[i], sys.ringPos, sys.ticks)
		leaf.srv.Engine().AddBatch(evs[:n])
	}
	sys.ringPos += n
	sys.ticks += uint64(n / eventsPerTick)
	sys.fed += uint64(n * len(sys.leaves))
}

func (r *run) buildCoordSystem() (*coordSystem, error) {
	sys := &coordSystem{}
	perLeaf := coordLeafPreload / r.sc.preloadDiv
	streams := make([][]ecmsketch.Event, coordLeaves)
	for i := 0; i < coordLeaves; i++ {
		leaf, err := r.startSite(ecmserver.Config{
			Epsilon: coordEps, Delta: coordEps, WindowLength: coordWindow, Algorithm: "eh", Seed: opHashSeed,
			Shards: coordShards, MergeTTL: 250 * time.Millisecond,
		})
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.leaves = append(sys.leaves, leaf)
		sys.rings = append(sys.rings, newRing(r.seed, streamLeaf+i, r.sc.ringLen))
		streams[i] = preloadEvents(r.seed, streamLeaf+i, perLeaf)
		preload(leaf.srv.Engine(), streams[i])
	}
	sys.ticks = uint64(perLeaf / eventsPerTick)
	sys.fed = uint64(perLeaf * coordLeaves)
	keep := 0
	if r.tr != nil {
		keep = r.sc.replayKeep / (coordLeaves + coordLeaves/coordFanIn)
	}
	sys.tree = buildTree(sys.leaves, r.tr, keep)
	r.sweep(sys.tree) // bootstrap: the only full pulls of the run

	// Accuracy over the whole stream, read from the root like a client of
	// the tree would. Leaves share tick numbers, so interleaving them keeps
	// the oracle's clock monotone.
	o := workload.NewOracle(coordWindow)
	for j := 0; j < perLeaf; j++ {
		for i := range streams {
			o.Add(streams[i][j].Key, streams[i][j].Tick)
		}
	}
	snap, err := sys.tree.root.Snapshot()
	if err != nil {
		sys.close()
		return nil, err
	}
	ratio, err := errOverBound(o, snap, accuracyKeys(o, coordWindow, streams[0], 256), coordWindow, coordEps)
	if err != nil {
		sys.close()
		return nil, err
	}
	r.reportAccuracy(ratio, 512)
	return sys, nil
}

func pulledBytes(t *coordTree) int64 {
	var b int64
	for _, c := range t.all() {
		b += c.PulledBytes()
	}
	return b
}

func runCoordRefresh(r *run) error {
	sys, err := timeSetups(r, r.buildCoordSystem)
	if err != nil {
		return err
	}
	defer sys.close()
	tree := sys.tree

	type regimeOut struct {
		sweeps, mids, roots, patch, cells samples
		bytes                             int64
	}
	out := map[string]*regimeOut{"sparse": {}, "dense": {}}
	var all samples
	var cpu, swept time.Duration
	evs := make([]ecmsketch.Event, denseEvents)
	start := time.Now()
	for time.Since(start) < r.dur {
		regime, n := "dense", denseEvents
		if time.Since(start) < time.Duration(sparseShare*float64(r.dur)) {
			regime, n = "sparse", sparseEvents
		}
		sys.feed(evs, n) // untimed: the sweep is what a round measures
		if r.tr != nil {
			r.tr.regime.Store(regime)
		}
		b0, c0 := pulledBytes(tree), cpuTime()
		st := r.sweep(tree)
		cpu += cpuTime() - c0
		swept += st.total()
		ro := out[regime]
		ro.bytes += pulledBytes(tree) - b0
		ro.sweeps.add(st.total())
		all.add(st.total())
		if r.tr != nil {
			var patchNs, cells int64
			for _, c := range tree.all() {
				lr := c.LastRefresh()
				patchNs += lr.MergeNs
				cells += int64(lr.ChangedCells)
			}
			ro.patch.add(time.Duration(patchNs))
			ro.cells = append(ro.cells, float64(cells))
			ro.roots.add(st.root)
			for _, m := range st.mids {
				ro.mids.add(m)
			}
		}
	}
	if r.tr != nil {
		r.tr.regime.Store("")
	}
	if len(all) == 0 {
		return fmt.Errorf("coord-refresh: no round completed")
	}
	r.setE2E("ops_per_s", float64(len(all))/swept.Seconds(), len(all))
	r.setE2E("cpu_ns_per_op", float64(cpu)/float64(len(all)), len(all))
	r.setE2E("op_p50_ms", median(all)/1e6, len(all))
	if r.layers {
		for _, regime := range regimes {
			ro := out[regime]
			r.setLayer("refresh_"+regime+"_p50_ms", median(ro.sweeps)/1e6, len(ro.sweeps))
			if len(ro.sweeps) > 0 {
				r.setLayer(regime+"_bytes_per_round", float64(ro.bytes)/float64(len(ro.sweeps)), len(ro.sweeps))
			}
		}
	}

	// Quiesced: the last sweep followed the last feed.
	var fulls, deltas uint64
	for _, c := range tree.all() {
		fulls += c.FullPulls()
		deltas += c.DeltaPulls()
	}
	members := uint64(len(sys.leaves) + len(tree.mids))
	r.gate(fulls == members, "full pulls %d != member count %d: a cursor was lost after bootstrap", fulls, members)
	snap, err := tree.root.Snapshot()
	r.op(err)
	if err != nil {
		return nil
	}
	r.gate(snap.Count() == sys.fed, "root Count %d != events fed %d", snap.Count(), sys.fed)
	r.gateTotal(snap, coordWindow, eventsPerTick*coordLeaves, coordEps)
	fresh := buildTree(sys.leaves, nil, 0)
	r.sweep(fresh)
	freshSnap, err := fresh.root.Snapshot()
	r.gate(err == nil && bytes.Equal(snap.Marshal(), freshSnap.Marshal()),
		"incrementally patched root differs from a tree bootstrapped by full pulls")

	if r.tr != nil {
		ix := indexSpans(r.tr.take())
		for _, regime := range regimes {
			ro := out[regime]
			pulls := ix.durations("coord", "pull."+regime)
			r.setLayer("coord.pull_p50_ms."+regime, median(pulls)/1e6, len(pulls))
			if len(pulls) > 0 {
				r.setLayer("coord.pull_bytes."+regime, float64(ix.sumN("coord", "pull."+regime))/float64(len(pulls)), len(pulls))
			}
			r.setLayer("coord.patch_ms."+regime, median(ro.patch)/1e6, len(ro.patch))
			r.setLayer("coord.changed_cells."+regime, median(ro.cells), len(ro.cells))
			r.setLayer("coord.mid_refresh_ms."+regime, median(ro.mids)/1e6, len(ro.mids))
			r.setLayer("coord.root_refresh_ms."+regime, median(ro.roots)/1e6, len(ro.roots))
			handle := ix.durations("ecmserver", "/v1/snapshot."+regime)
			r.setLayer("ecmserver.snapshot_handle_ms."+regime, median(handle)/1e6, len(handle))
		}
		r.setLayer("coord.delta_pulls", float64(deltas), 1)
		r.setLayer("coord.full_pulls", float64(fulls), 1)
		r.replayPulls(tree.sites)
	}
	return nil
}
