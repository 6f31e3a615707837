package difftest

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
	"ecmsketch/internal/workload"
)

// Mode is how a door takes the arrivals of a write op.
type Mode uint8

const (
	Batches Mode = iota // one AddBatch per op
	Singles             // one AddN per arrival
	Mixed               // ops alternate between the two
)

func (m Mode) String() string { return [...]string{"batch", "addn", "mixed"}[m] }

// Via is the transport a coordinator pulls its sites over.
type Via uint8

const (
	Local Via = iota // NewLocalSite over the door's source
	HTTP             // NewHTTPSite against an ecmserver over the source
)

// Stop is how a durable door goes down at a crash point.
type Stop uint8

const (
	Abrupt Stop = iota // Flush, then CloseAbrupt: the WAL tail replays
	Clean              // Close: the final checkpoint leaves nothing to replay
)

// H replays one log against its doors and judges them at every Check op.
type H struct {
	t     testing.TB
	p     ecmsketch.Params
	split core.Split
	log   Log
	at    int
	clock []Tick // each site's engine clock, for the oracles' write rule

	doors   []*Door
	same    []group
	bounded []*Door
}

// New returns a harness whose doors are built from p.
func New(t testing.TB, p ecmsketch.Params) *H {
	ref, err := ecmsketch.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return &H{t: t, p: p, split: ref.EffectiveSplit()}
}

// Door is one front end or tier the log is replayed through.
type Door struct {
	Name   string
	Pulled []int // payload bytes of every pull round, at pullers and coordinators

	h      *H
	site   int    // the site whose writes it ingests; -1 for none
	sites  uint64 // bit i: its answers cover site i
	depth  int    // merge levels between the stream and its answers
	mode   Mode
	writes int
	in     ecmsketch.Ingestor

	read  func() ecmsketch.BatchQuerier
	src   func() ecmsketch.DeltaSnapshotter // nil: no parts to compare
	bytes func() []byte                     // nil: no bytes to compare
	on    func(*Op)                         // flush, crash and pull handling
	prep  func()                            // before the judge reads
	self  func()                            // door-specific checks at a Check

	eng    func() *ecmsketch.Sharded
	co     func() *ecmsketch.Coordinator
	http   *httptest.Server
	oracle *workload.Oracle
	worst  float64 // worst |total − exact| / ‖a_r‖₁ seen
	fired  int     // firings a standing door has matched
}

// Engine is a Sharded door's engine as it stands (a durable door's changes
// at each crash point).
func (d *Door) Engine() *ecmsketch.Sharded { return d.eng() }

// Coordinator is a coordinator door's coordinator as it stands.
func (d *Door) Coordinator() *ecmsketch.Coordinator { return d.co() }

func (h *H) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("difftest seed %d op %d: %s", h.log.Seed, h.at, fmt.Sprintf(format, args...))
}

func (h *H) must(err error) {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
}

func (h *H) add(d *Door) *Door {
	d.h = h
	h.doors = append(h.doors, d)
	return d
}

func (h *H) engine(cfg ecmsketch.ShardedConfig) *ecmsketch.Sharded {
	if cfg.Params == (ecmsketch.Params{}) {
		cfg.Params = h.p
	}
	sh, err := ecmsketch.NewSharded(cfg)
	h.must(err)
	return sh
}

// write feeds one write op to d's ingestor in d's mode.
func (d *Door) write(op *Op) {
	if d.in == nil || op.Site != d.site {
		return
	}
	switch op.Kind {
	case OpAdvance:
		d.in.Advance(op.Tick)
	case OpString:
		d.in.AddString(op.Str, op.Events[0].Tick)
	case OpBatch:
		d.writes++
		if d.mode == Batches || d.mode == Mixed && d.writes%2 == 0 {
			d.in.AddBatch(op.Events)
			return
		}
		for _, ev := range op.Events {
			d.in.AddN(ev.Key, ev.Tick, ev.N)
		}
	}
}

// Sketch is a bare Sketch taking site's writes. An EH or DW sketch has
// stripe 0's salt of a Sharded engine, so it is comparable with Sharded{1}
// byte for byte. An RW sketch has its site's coord.SiteIDSalt, as
// coord.NewCluster gives one, so sites draw distinct event identifiers.
func (h *H) Sketch(site int, m Mode) *Door {
	sk, err := ecmsketch.New(h.p)
	h.must(err)
	if h.p.Algorithm == ecmsketch.AlgoRW {
		sk.SetIDSalt(coord.SiteIDSalt(site))
	} else {
		sk.SetIDSalt(0x9e37_79b9_7f4a_7c15)
	}
	d := &Door{Name: "sketch/" + m.String(), site: site, sites: 1 << site, mode: m, in: sk}
	d.read = func() ecmsketch.BatchQuerier { return sk }
	d.src = func() ecmsketch.DeltaSnapshotter { return sk }
	d.bytes = func() []byte {
		snap, err := sk.Snapshot()
		h.must(err)
		snap.Advance(snap.Now())
		return snap.Marshal()
	}
	d.on = d.write
	return h.add(d)
}

// Sharded is a Sharded engine built from cfg (the harness's Params when
// cfg.Params is zero) taking site's writes.
func (h *H) Sharded(site int, cfg ecmsketch.ShardedConfig, m Mode) *Door {
	sh := h.engine(cfg)
	h.t.Cleanup(func() { sh.Close() })
	d := h.over(fmt.Sprintf("sharded%d", sh.Shards()), site, m, func() *ecmsketch.Sharded { return sh })
	if cfg.Async {
		d.Name += "/async"
	}
	if cfg.MergeTTL > 0 {
		d.Name += "/ttl"
		dirty := false
		d.on = func(op *Op) {
			dirty = dirty || op.Kind <= OpAdvance && op.Site == site
			d.write(op)
		}
		d.prep = func() {
			sh.Flush()
			if dirty { // let the view lapse, so the judge's first read rebuilds it
				time.Sleep(cfg.MergeTTL)
				dirty = false
			}
		}
	}
	return d
}

// Site is a site's engine taking site's writes in batches: a Sharded
// engine of the given stripes, or a bare Sketch for RW, which Sharded does
// not serve.
func (h *H) Site(site, stripes int) *Door {
	if h.p.Algorithm == ecmsketch.AlgoRW {
		return h.Sketch(site, Batches)
	}
	return h.Sharded(site, ecmsketch.ShardedConfig{Shards: stripes}, Batches)
}

// over wires a door over the Sharded engine eng returns.
func (h *H) over(name string, site int, m Mode, eng func() *ecmsketch.Sharded) *Door {
	d := &Door{Name: name + "/" + m.String(), site: site, sites: 1 << site, mode: m}
	d.in, d.eng = eng(), eng
	d.read = func() ecmsketch.BatchQuerier { return eng() }
	d.src = func() ecmsketch.DeltaSnapshotter { return eng() }
	d.bytes = func() []byte { return eng().Marshal() }
	d.on = func(op *Op) {
		d.write(op)
		if op.Kind == OpFlush {
			eng().Flush()
		}
	}
	d.prep = func() { eng().Flush() }
	return h.add(d)
}

// Durable is a durable Sharded engine (cfg.Durability's Store defaults to a
// MemStore) taking site's writes. It checkpoints at every Flush op, and at
// every Crash op it stops as stop says and is rebuilt over the same store:
// recovery must restore the prior state under the same epoch.
func (h *H) Durable(site int, cfg ecmsketch.ShardedConfig, m Mode, stop Stop) *Door {
	dc := ecmsketch.DurabilityConfig{Store: ecmsketch.NewMemStore()}
	if cfg.Durability != nil {
		dc = *cfg.Durability
	}
	cfg.Durability = &dc
	sh := h.engine(cfg)
	h.t.Cleanup(func() { sh.Close() })
	d := h.over(fmt.Sprintf("durable%d", sh.Shards()), site, m, func() *ecmsketch.Sharded { return sh })
	d.on = func(op *Op) {
		d.write(op)
		switch op.Kind {
		case OpFlush:
			h.must(sh.Checkpoint())
		case OpCrash:
			before := sh.DurabilityStats()
			if stop == Clean {
				h.must(sh.Close())
			} else {
				sh.Flush()
				sh.CloseAbrupt()
			}
			sh = h.engine(cfg)
			d.in = sh
			st := sh.DurabilityStats()
			switch {
			case !st.Recovered || st.Epoch != before.Epoch:
				h.fail("%s: restart did not recover epoch %x: %+v", d.Name, before.Epoch, st)
			case stop == Clean && st.ReplayedRecords != 0:
				h.fail("%s: clean shutdown replayed %d records", d.Name, st.ReplayedRecords)
			case stop == Abrupt && before.WALRecords > 0 && st.ReplayedRecords == 0:
				h.fail("%s: %d logged records, none replayed", d.Name, before.WALRecords)
			}
		}
	}
	return d
}

// Client is ecmclient against an ecmserver over a Sharded engine of the
// given stripes, over httptest, taking site's writes.
func (h *H) Client(site, shards int, m Mode) *Door {
	sh := h.engine(ecmsketch.ShardedConfig{Shards: shards})
	srv, err := ecmserver.NewOver(ecmserver.Config{WindowLength: h.p.WindowLength}, sh)
	h.must(err)
	ts := httptest.NewServer(srv)
	h.t.Cleanup(ts.Close)
	c := ecmclient.New(ts.URL)
	d := &Door{Name: fmt.Sprintf("client%d/%v", shards, m), site: site, sites: 1 << site, mode: m, in: c, http: ts}
	d.read = func() ecmsketch.BatchQuerier { return c }
	d.src = func() ecmsketch.DeltaSnapshotter { return c }
	d.bytes = c.Marshal
	d.on = d.write
	d.prep = func() {
		h.t.Helper()
		if err := c.Err(); err != nil {
			h.fail("%s: %v", d.Name, err)
		}
	}
	return h.add(d)
}

// source adapts a door to a site's DeltaSnapshotter, following the door's
// engine across crashes.
type source struct{ d *Door }

func (s source) DeltaSnapshot(c ecmsketch.Cursor) ([]byte, ecmsketch.Cursor, bool, error) {
	return s.d.src().DeltaSnapshot(c)
}

// site returns a coordinator's Site over d.
func (d *Door) asSite(via Via, name string) ecmsketch.Site {
	if via == Local {
		return ecmsketch.NewLocalSite(name, source{d})
	}
	if d.http == nil {
		src, ok := d.src().(ecmserver.Source)
		if !ok {
			d.h.fail("%s cannot be served over HTTP", d.Name)
		}
		srv, err := ecmserver.NewOver(ecmserver.Config{WindowLength: d.h.p.WindowLength}, src)
		d.h.must(err)
		d.http = httptest.NewServer(srv)
		d.h.t.Cleanup(d.http.Close)
	}
	s := coord.NewHTTPSite(d.http.URL, nil)
	s.SetName(name)
	return s
}

func (h *H) cover(name string, depth int, of []*Door) *Door {
	d := &Door{Name: name, site: -1, depth: depth}
	for _, o := range of {
		d.sites |= o.sites
		d.depth = max(d.depth, o.depth+depth)
	}
	return d
}

// Coord is a coordinator over sites, pulling deltas over via at every Pull
// op; every round must keep every site clean, and only the first may
// rebuild the root from scratch.
func (h *H) Coord(via Via, sites ...*Door) *Door { return h.coord(via, false, sites) }

// Fresh is a coordinator built anew over sites at every Pull op: one full
// pull per site, no deltas.
func (h *H) Fresh(via Via, sites ...*Door) *Door { return h.coord(via, true, sites) }

func (h *H) coord(via Via, fresh bool, of []*Door) *Door {
	name := [...]string{"coord", "coord-http"}[via]
	if fresh {
		name = "fresh-" + name
	}
	d := h.cover(name, 1, of)
	sites := make([]ecmsketch.Site, len(of))
	for i, o := range of {
		sites[i] = o.asSite(via, fmt.Sprintf("%s-%d", o.Name, i))
	}
	co := ecmsketch.NewCoordinator(sites...)
	pulls := 0
	d.read = func() ecmsketch.BatchQuerier { return co }
	d.src = func() ecmsketch.DeltaSnapshotter { return co }
	d.bytes = co.Marshal
	d.co = func() *ecmsketch.Coordinator { return co }
	d.on = func(op *Op) {
		if op.Kind != OpPull {
			return
		}
		if fresh {
			co = ecmsketch.NewCoordinator(sites...)
		}
		pulls++
		before := co.PulledBytes()
		h.must(co.Refresh())
		d.Pulled = append(d.Pulled, int(co.PulledBytes()-before))
		st := co.LastRefresh()
		switch {
		case st.Contributors != len(sites) || st.Stale != 0 || st.Excluded != 0:
			h.fail("%s: round %d stats %+v, want %d clean contributors", d.Name, pulls, st, len(sites))
		case !fresh && pulls > 1 && st.RebuiltAll:
			h.fail("%s: steady-state round %d rebuilt from scratch", d.Name, pulls)
		case fresh && (co.FullPulls() != uint64(len(sites)) || co.DeltaPulls() != 0):
			h.fail("%s: %d full and %d delta pulls, want %d full", d.Name, co.FullPulls(), co.DeltaPulls(), len(sites))
		}
	}
	return h.add(d)
}

// Parts returns the parts a puller holds after a full pull of src: its
// stripes settled at its clock, or the one sketch of a sketch or a
// coordinator.
func Parts(t testing.TB, src ecmsketch.DeltaSnapshotter) []*ecmsketch.Sketch {
	t.Helper()
	parts, _ := pull(t, src)
	return parts
}

// pull is a full pull of src applied to a fresh DeltaState: its parts and
// the cursor it shipped.
func pull(t testing.TB, src ecmsketch.DeltaSnapshotter) ([]*ecmsketch.Sketch, ecmsketch.Cursor) {
	t.Helper()
	payload, cur, full, err := src.DeltaSnapshot(ecmsketch.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	var ds ecmsketch.DeltaState
	if err := ds.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	return ds.Parts(), cur
}

// FlatMerge is one Merge over every source's parts, in source order and
// then part order: what a coordinator over the sources holds.
func FlatMerge(t testing.TB, srcs ...ecmsketch.DeltaSnapshotter) *ecmsketch.Sketch {
	t.Helper()
	var parts []*ecmsketch.Sketch
	for _, src := range srcs {
		parts = append(parts, Parts(t, src)...)
	}
	merged, err := ecmsketch.Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// Merged is the reference a coordinator over of must equal: FlatMerge of
// the doors' sources, taken fresh at every Check.
func (h *H) Merged(of ...*Door) *Door {
	d := h.cover("flat-merge", 1, of)
	at := -1
	var m *ecmsketch.Sketch
	get := func() *ecmsketch.Sketch {
		if at != h.at {
			srcs := make([]ecmsketch.DeltaSnapshotter, len(of))
			for i, o := range of {
				srcs[i] = o.src()
			}
			m, at = FlatMerge(h.t, srcs...), h.at
		}
		return m
	}
	d.read = func() ecmsketch.BatchQuerier { return get() }
	d.src = func() ecmsketch.DeltaSnapshotter { return get() }
	d.bytes = func() []byte { return get().Marshal() }
	return h.add(d)
}

// Puller holds a DeltaState over of's source, pulling at every Pull op:
// only the first pull may be a full baseline, and the materialised parts
// answer as the door.
func (h *H) Puller(of *Door) *Door {
	d := h.cover("puller", 1, []*Door{of})
	var ds ecmsketch.DeltaState
	get := func() *ecmsketch.Sketch {
		m, err := ds.Materialize()
		h.must(err)
		return m
	}
	d.read = func() ecmsketch.BatchQuerier { return get() }
	d.bytes = func() []byte { return get().Marshal() }
	d.on = func(op *Op) {
		if op.Kind != OpPull {
			return
		}
		payload, cur, full, err := of.src().DeltaSnapshot(ds.Cursor())
		h.must(err)
		if full != (len(d.Pulled) == 0) {
			h.fail("%s: pull %d full=%v, want a baseline once and deltas after", d.Name, len(d.Pulled), full)
		}
		d.Pulled = append(d.Pulled, len(payload))
		h.must(ds.Apply(payload, cur, full))
	}
	return h.add(d)
}

// Stripes is the reference a Sharded view must equal: every stripe of of's
// engine snapshotted fresh and settled at the engine clock, a key answered
// by the stripe owner names, aggregates summed in stripe order, and the
// merged bytes one Merge of the stripes.
func (h *H) Stripes(of *Door, owner func(key uint64) int) *Door {
	d := h.cover("stripes", 0, []*Door{of})
	get := func() *stripes {
		eng := of.read().(interface{ Now() Tick })
		return &stripes{parts: Parts(h.t, of.src()), now: eng.Now(), w: h.p.WindowLength, owner: owner}
	}
	d.read = func() ecmsketch.BatchQuerier { return get() }
	d.bytes = func() []byte {
		m, err := ecmsketch.Merge(get().parts...)
		h.must(err)
		return m.Marshal()
	}
	return h.add(d)
}

type stripes struct {
	parts []*ecmsketch.Sketch
	now   Tick
	w     Tick
	owner func(uint64) int
}

func (s *stripes) QueryBatch(q ecmsketch.QueryBatch) (ecmsketch.QueryResult, error) {
	r := q.Range
	if r == 0 {
		r = s.w
	}
	res := ecmsketch.QueryResult{Now: s.now, Range: r, Estimates: make([]float64, len(q.Keys))}
	for i, k := range q.Keys {
		res.Estimates[i] = s.parts[s.owner(k)].Estimate(k, r)
	}
	for _, p := range s.parts {
		if q.Total {
			res.Total += p.EstimateTotal(r)
		}
		if q.SelfJoin {
			res.SelfJoin += p.SelfJoin(r)
		}
	}
	return res, nil
}

// Before runs fn ahead of every read of d by the judge.
func (d *Door) Before(fn func()) {
	prep := d.prep
	d.prep = func() {
		if prep != nil {
			prep()
		}
		fn()
	}
}

// Feed applies every write op of site 0 in l to in, one AddBatch per op.
func Feed(in ecmsketch.Ingestor, l Log) {
	d := Door{site: 0, in: in}
	for i := range l.Ops {
		d.write(&l.Ops[i])
	}
}

// SameState requires got to hold want's state: the parts a full pull
// ships, byte for byte, their versions and the arrival count.
func SameState(t testing.TB, name string, got, want interface {
	ecmsketch.DeltaSnapshotter
	Count() uint64
}) {
	t.Helper()
	g, gv := pulled(t, got)
	w, wv := pulled(t, want)
	if diff := stateDiff(g, w, gv, wv, true); diff != "" {
		t.Fatalf("%s: %s", name, diff)
	}
	if gc, wc := got.Count(), want.Count(); gc != wc {
		t.Fatalf("%s: count %d, want %d", name, gc, wc)
	}
}
