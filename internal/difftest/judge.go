package difftest

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/core"
	"ecmsketch/internal/workload"
)

// Same declares that doors answer alike: at every Check every query kind
// answers bit for bit as the first door's, the merged bytes are equal
// wherever both doors have them, and so are the parts a full pull ships
// (and, between two doors that ingest, the parts' versions).
func (h *H) Same(doors ...*Door) { h.same = append(h.same, group{doors: doors}) }

// Agree declares that doors answer every query kind bit for bit alike,
// whatever bytes and parts they hold: doors of different stripe counts do,
// in a stream too short for any counter to merge buckets.
func (h *H) Agree(doors ...*Door) { h.same = append(h.same, group{doors: doors, answers: true}) }

type group struct {
	doors   []*Door
	answers bool // compare answers only
}

// Bounded declares that every answer of doors holds the paper's bound for
// the door's merge depth against workload.Oracle over the sites it covers:
// PointErrorBound at depth 0, MergedPointErrorBound at 1 and
// HierarchicalPointErrorBound deeper, times ‖a_r‖₁ for a point and ‖a_r‖₁²
// for F₂. The worst ‖a_r‖₁ error is kept for Totals.
func (h *H) Bounded(doors ...*Door) {
	for _, d := range doors {
		d.oracle = workload.NewOracle(h.p.WindowLength)
	}
	h.bounded = append(h.bounded, doors...)
}

// Bound is the point-error factor of d's merge depth.
func (d *Door) Bound() float64 {
	switch s := d.h.split; d.depth {
	case 0:
		return s.PointErrorBound()
	case 1:
		return core.MergedPointErrorBound(s)
	default:
		return core.HierarchicalPointErrorBound(s, d.depth)
	}
}

// WorstTotal is the largest |‖a_r‖₁ estimate − exact| / exact a Bounded
// door answered.
func (d *Door) WorstTotal() float64 { return d.worst }

// Run replays l through every door, judging them at each Check op.
func (h *H) Run(l Log) {
	h.t.Helper()
	h.log = l
	h.clock = make([]Tick, max(l.Shape.Sites, 1))
	for i := range l.Ops {
		h.at = i
		op := &l.Ops[i]
		if op.Kind == OpCheck {
			h.judge()
			continue
		}
		h.exact(op)
		for _, d := range h.doors {
			if d.on != nil {
				d.on(op)
			}
		}
	}
}

// exact feeds op to the oracles of the Bounded doors covering its site,
// under the write rule every door applies: a tick clamps to the site's
// engine clock, and N == 0 is one arrival.
func (h *H) exact(op *Op) {
	if op.Kind > OpAdvance {
		return
	}
	if op.Kind == OpAdvance {
		h.clock[op.Site] = max(h.clock[op.Site], op.Tick)
		for _, d := range h.bounded {
			if d.sites&(1<<op.Site) != 0 {
				d.oracle.Advance(op.Tick)
			}
		}
		return
	}
	for _, ev := range op.Events {
		t := core.ClampTick(ev.Tick, h.clock[op.Site])
		h.clock[op.Site] = t
		for _, d := range h.bounded {
			if d.sites&(1<<op.Site) == 0 {
				continue
			}
			for n := core.Arrivals(ev.N); n > 0; n-- {
				d.oracle.Add(ev.Key, t)
			}
		}
	}
}

// answer is everything the judge asks one door at one Check.
type answer struct {
	res    []ecmsketch.QueryResult // one per range of h.ranges
	bytes  []byte
	parts  [][]byte
	vers   []uint64
	ingest bool
}

func (h *H) ranges() []Tick {
	w := h.p.WindowLength
	return []Tick{0, 1, w / 3, w, 2 * w}
}

type single interface {
	Estimate(key uint64, r Tick) float64
	EstimateTotal(r Tick) float64
	SelfJoin(r Tick) float64
	Now() Tick
}

// ask puts every query kind to d and checks the kinds agree with each
// other: a batch asked twice (the second a memo hit), a direct read, the
// single-value calls, and the direct door's refusal of aggregates; with
// state set, it also takes the door's merged bytes and parts.
func (h *H) ask(d *Door, state bool) *answer {
	h.t.Helper()
	if d.prep != nil {
		d.prep()
	}
	r := d.read()
	a := &answer{ingest: d.in != nil}
	for _, rg := range h.ranges() {
		q := ecmsketch.QueryBatch{Keys: h.log.Keys, Range: rg, Total: true, SelfJoin: true}
		res, err := r.QueryBatch(q)
		h.must(err)
		want := rg
		if want == 0 {
			want = h.p.WindowLength
		}
		if res.Range != want {
			h.fail("%s: range %d resolved to %d", d.Name, rg, res.Range)
		}
		again, err := r.QueryBatch(q)
		h.must(err)
		h.equal(d.Name+" asked twice", rg, res, again)
		if dq, ok := r.(ecmsketch.DirectQuerier); ok {
			direct, err := dq.QueryDirect(ecmsketch.QueryBatch{Keys: h.log.Keys, Range: rg})
			h.must(err)
			direct.Total, direct.SelfJoin = res.Total, res.SelfJoin
			h.equal(d.Name+" direct", rg, res, direct)
			for _, agg := range []ecmsketch.QueryBatch{{Total: true}, {SelfJoin: true}} {
				if _, err := dq.QueryDirect(agg); err == nil {
					h.fail("%s: QueryDirect accepted an aggregate %+v", d.Name, agg)
				}
			}
			if c, ok := r.(interface {
				Err() error
				Reset()
			}); ok {
				c.Reset() // the client keeps the refusal as its sticky error
			}
		}
		if s, ok := r.(single); ok && (rg == 0 || rg == 1 || rg == h.p.WindowLength) {
			want := res
			if rg == 0 {
				// A batch's Range 0 is the whole window; a single call's
				// r = 0 is an empty range and answers 0 on every door.
				want = ecmsketch.QueryResult{Now: res.Now, Range: res.Range, Estimates: make([]float64, len(res.Estimates))}
			}
			one := ecmsketch.QueryResult{Now: s.Now(), Range: want.Range, Total: s.EstimateTotal(rg), SelfJoin: s.SelfJoin(rg),
				Estimates: append([]float64(nil), want.Estimates...)}
			for i, k := range h.log.Keys[:min(8, len(h.log.Keys))] {
				one.Estimates[i] = s.Estimate(k, rg)
			}
			h.equal(d.Name+" single calls", rg, want, one)
		}
		a.res = append(a.res, res)
	}
	if d.bytes != nil && state {
		a.bytes = d.bytes()
	}
	if d.src != nil && state {
		a.parts, a.vers = pulled(h.t, d.src())
	}
	if d.self != nil {
		d.self()
	}
	return a
}

// pulled is the state a full pull of src ships: every part's bytes and
// the parts' versions.
func pulled(t testing.TB, src ecmsketch.DeltaSnapshotter) (parts [][]byte, vers []uint64) {
	t.Helper()
	ps, cur := pull(t, src)
	for _, p := range ps {
		parts = append(parts, p.Marshal())
	}
	return parts, cur.Vers
}

// stateDiff says how the pulled parts got differ from want, and with
// vers how their versions do; "" when they are alike.
func stateDiff(got, want [][]byte, gotVers, wantVers []uint64, vers bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d parts, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("part %d differs (%d vs %d bytes)", i, len(got[i]), len(want[i]))
		}
	}
	if vers && fmt.Sprint(gotVers) != fmt.Sprint(wantVers) {
		return fmt.Sprintf("part versions %v, want %v", gotVers, wantVers)
	}
	return ""
}

// equal requires two answers to one range to be bit-identical.
func (h *H) equal(what string, rg Tick, want, got ecmsketch.QueryResult) {
	h.t.Helper()
	same := got.Now == want.Now && got.Range == want.Range && len(got.Estimates) == len(want.Estimates) &&
		math.Float64bits(got.Total) == math.Float64bits(want.Total) &&
		math.Float64bits(got.SelfJoin) == math.Float64bits(want.SelfJoin)
	for i := 0; same && i < len(want.Estimates); i++ {
		same = math.Float64bits(got.Estimates[i]) == math.Float64bits(want.Estimates[i])
	}
	if !same {
		h.fail("%s, range %d:\n got  %s\n want %s", what, rg, brief(got), brief(want))
	}
}

func brief(r ecmsketch.QueryResult) string {
	return fmt.Sprintf("now=%d range=%d total=%v selfJoin=%v estimates=%.6g", r.Now, r.Range, r.Total, r.SelfJoin, r.Estimates)
}

// judge asks every door of a Same group or Bounded, then holds the Same groups to each other and the
// Bounded doors to their oracles.
func (h *H) judge() {
	h.t.Helper()
	answers := make(map[*Door]*answer, len(h.doors))
	state := make(map[*Door]bool) // doors whose bytes and parts are compared
	judged := append([]*Door(nil), h.bounded...)
	for _, g := range h.same {
		judged = append(judged, g.doors...)
		for _, d := range g.doors {
			state[d] = state[d] || !g.answers
		}
	}
	for _, d := range judged {
		if answers[d] == nil {
			answers[d] = h.ask(d, state[d])
		}
	}
	for _, d := range h.doors {
		if d.read == nil && d.self != nil {
			d.self()
		}
	}
	for _, g := range h.same {
		ref := answers[g.doors[0]]
		for _, d := range g.doors[1:] {
			a := answers[d]
			what := d.Name + " vs " + g.doors[0].Name
			for i, rg := range h.ranges() {
				h.equal(what, rg, ref.res[i], a.res[i])
			}
			if g.answers {
				continue
			}
			if ref.bytes != nil && a.bytes != nil && !bytes.Equal(ref.bytes, a.bytes) {
				h.fail("%s: merged bytes differ (%d vs %d)", what, len(a.bytes), len(ref.bytes))
			}
			if ref.parts == nil || a.parts == nil {
				continue
			}
			if diff := stateDiff(a.parts, ref.parts, a.vers, ref.vers, a.ingest && ref.ingest); diff != "" {
				h.fail("%s: %s", what, diff)
			}
		}
	}
	w := h.p.WindowLength
	for _, d := range h.bounded {
		b := d.Bound()
		for i, rg := range h.ranges() {
			if rg != w && rg != w/3 {
				continue
			}
			res := answers[d].res[i]
			l1 := float64(d.oracle.Total(rg))
			for j, k := range h.log.Keys {
				if got, want := res.Estimates[j], float64(d.oracle.Freq(k, rg)); math.Abs(got-want) > b*l1 {
					h.t.Errorf("difftest seed %d op %d: %s: r=%d key %d: estimate %v, exact %v: off by more than %.3f·‖a_r‖₁ = %v",
						h.log.Seed, h.at, d.Name, rg, k, got, want, b, b*l1)
				}
			}
			if want := d.oracle.SelfJoin(rg); math.Abs(res.SelfJoin-want) > b*l1*l1 {
				h.t.Errorf("difftest seed %d op %d: %s: r=%d: F₂ %v, exact %v: off by more than %.3f·‖a_r‖₁²",
					h.log.Seed, h.at, d.Name, rg, res.SelfJoin, want, b)
			}
			if l1 > 0 {
				d.worst = max(d.worst, math.Abs(res.Total-l1)/l1)
			}
		}
	}
}

// Totals requires every door's WorstTotal within its Bound.
func (h *H) Totals(t testing.TB, doors ...*Door) {
	t.Helper()
	for _, d := range doors {
		if d.worst > d.Bound() {
			t.Errorf("difftest seed %d: %s: ‖a_r‖₁ off by up to %.3f·‖a_r‖₁, more than the bound %.3f",
				h.log.Seed, d.Name, d.worst, d.Bound())
		}
	}
}
