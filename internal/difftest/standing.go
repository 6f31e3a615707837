package difftest

import (
	"fmt"
	"sort"
	"testing"

	"ecmsketch"
)

// Standing registers queries on a standing registry over target — bound to
// a Sharded door's engine, or refreshed with a coordinator door's root and
// changed cells at every Pull — and after every op that can move the target
// re-evaluates every query by brute force. At every Check the registry's
// notifications must be exactly those firings, in order; a registry over a
// coordinator must refuse a learned top-k. The target must take Batches.
//
// Prev on threshold firings is not compared: it is the value at the
// query's previous evaluation, and skipping no-op evaluations is exactly
// what incrementality may do.
func (h *H) Standing(target *Door, queries []ecmsketch.StandingQuery) *Door {
	d := &Door{Name: "standing/" + target.Name, site: -1}
	oracle := &firingOracle{window: h.p.WindowLength, queries: queries,
		high: make([]bool, len(queries)), members: make([][]ecmsketch.NotificationItem, len(queries))}
	coordinated := target.co != nil
	reg := ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{RequireKeys: coordinated})
	reg.SetLimits(16384, 16384)
	if coordinated {
		if _, err := reg.Subscribe([]ecmsketch.StandingQuery{{Kind: ecmsketch.StandingTopK, K: 3}}); err == nil {
			h.fail("%s: a coordinator's registry accepted a learned top-k", d.Name)
		}
	} else {
		eng := target.Engine()
		reg.Bind(eng)
		eng.SetNotifier(reg)
		h.t.Cleanup(func() { eng.SetNotifier(nil) })
	}
	w, got, idx := Watch(h.t, reg, queries)
	var want []firing
	if !coordinated {
		want = oracle.eval(target.Engine()) // the boundary Subscribe evaluated
	}
	d.on = func(op *Op) {
		switch {
		case coordinated && op.Kind == OpPull:
			co := target.Coordinator()
			root, err := co.View()
			h.must(err)
			cells, all := co.TakeChangedCells()
			reg.RefreshTarget(root, cells, all)
			want = append(want, oracle.eval(root)...)
		case !coordinated && op.Site == target.site && op.Kind <= OpAdvance:
			want = append(want, oracle.eval(target.Engine())...)
		}
	}
	d.self = func() {
		got = append(got, Drain(w)...)
		for i := 0; i < max(len(got), len(want)); i++ {
			var g, o string
			if i < len(got) {
				g = toFiring(got[i], idx).String()
			}
			if i < len(want) {
				o = want[i].String()
			}
			if g != o {
				h.fail("%s: firing %d diverged:\n  oracle      %s\n  incremental %s", d.Name, i, o, g)
			}
		}
		d.fired = len(want)
	}
	return h.add(d)
}

// Fired is how many firings a Standing door has matched so far.
func (d *Door) Fired() int { return d.fired }

// Watch subscribes queries on reg and attaches a watcher, returning it, the
// notifications Subscribe's first evaluation fired, and each query ID's
// index in queries.
func Watch(t testing.TB, reg *ecmsketch.StandingRegistry, queries []ecmsketch.StandingQuery) (*ecmsketch.StandingWatcher, []ecmsketch.Notification, map[uint64]int) {
	t.Helper()
	info, err := reg.Subscribe(queries)
	if err != nil {
		t.Fatal(err)
	}
	w, missed, _, err := reg.Attach(info.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[uint64]int, len(info.Queries))
	for i, id := range info.Queries {
		idx[id] = i
	}
	return w, missed, idx
}

// Drain returns the notifications w holds, without blocking.
func Drain(w *ecmsketch.StandingWatcher) []ecmsketch.Notification {
	var out []ecmsketch.Notification
	for {
		select {
		case n, ok := <-w.C:
			if !ok {
				return out
			}
			out = append(out, n)
		default:
			return out
		}
	}
}

// firing is one crossing in comparable form.
type firing struct {
	q      int // query index in registration order
	kind   ecmsketch.StandingKind
	key    uint64
	rising bool
	value  float64
	now    Tick
	top    string
	inOut  string
}

func (f firing) String() string {
	return fmt.Sprintf("q%d %v key=%d rising=%v value=%g now=%d top=%s inout=%s",
		f.q, f.kind, f.key, f.rising, f.value, f.now, f.top, f.inOut)
}

func toFiring(n ecmsketch.Notification, idx map[uint64]int) firing {
	f := firing{q: idx[n.Query], kind: n.Kind, key: n.Key, rising: n.Rising, value: n.Value, now: n.Now}
	if n.Kind == ecmsketch.StandingTopK {
		f.top = topString(n.Top)
		f.inOut = fmt.Sprintf("+%v -%v", n.Entered, n.Left)
	}
	return f
}

// firingOracle re-evaluates every query at every boundary with the
// registry's predicate semantics (edges, tie-breaks, membership and rank
// rules) but none of its skipping.
type firingOracle struct {
	window  Tick
	queries []ecmsketch.StandingQuery
	high    []bool
	members [][]ecmsketch.NotificationItem
}

func (o *firingOracle) eval(t interface {
	Estimate(key uint64, r Tick) float64
	Now() Tick
}) []firing {
	now := t.Now()
	var fired []firing
	for i, q := range o.queries {
		rng := q.Range
		if rng == 0 {
			rng = o.window
		}
		switch q.Kind {
		case ecmsketch.StandingThreshold:
			cur := t.Estimate(q.Key, rng)
			high := cur >= q.Value
			if high != o.high[i] && high != q.Below {
				fired = append(fired, firing{q: i, kind: q.Kind, key: q.Key, rising: high, value: cur, now: now})
			}
			o.high[i] = high
		case ecmsketch.StandingTopK:
			scored := make([]ecmsketch.NotificationItem, 0, len(q.Keys))
			for _, k := range q.Keys {
				scored = append(scored, ecmsketch.NotificationItem{Key: k, Estimate: t.Estimate(k, rng)})
			}
			sort.Slice(scored, func(a, b int) bool {
				if scored[a].Estimate != scored[b].Estimate {
					return scored[a].Estimate > scored[b].Estimate
				}
				return scored[a].Key < scored[b].Key
			})
			var members []ecmsketch.NotificationItem
			for _, it := range scored[:min(q.K, len(scored))] {
				if it.Estimate > 0 {
					members = append(members, it)
				}
			}
			prev := o.members[i]
			if changed(members, prev, q.RankChanges) {
				fired = append(fired, firing{q: i, kind: q.Kind, now: now,
					top: topString(members), inOut: inOutString(members, prev)})
			}
			o.members[i] = members
		}
	}
	return fired
}

// changed reports whether a top-k fires: on a membership change, and on a
// reordering too when rank changes count.
func changed(cur, prev []ecmsketch.NotificationItem, rank bool) bool {
	if len(cur) != len(prev) {
		return true
	}
	in := make(map[uint64]bool, len(cur))
	reordered := false
	for j, it := range cur {
		in[it.Key] = true
		reordered = reordered || it.Key != prev[j].Key
	}
	if rank {
		return reordered
	}
	for _, it := range prev {
		if !in[it.Key] {
			return true
		}
	}
	return false
}

func topString(items []ecmsketch.NotificationItem) string {
	s := ""
	for _, it := range items {
		s += fmt.Sprintf("%d:%g ", it.Key, it.Estimate)
	}
	return s
}

func inOutString(cur, prev []ecmsketch.NotificationItem) string {
	was := make(map[uint64]bool, len(prev))
	for _, it := range prev {
		was[it.Key] = true
	}
	is := make(map[uint64]bool, len(cur))
	var entered, left []uint64
	for _, it := range cur {
		is[it.Key] = true
		if !was[it.Key] {
			entered = append(entered, it.Key)
		}
	}
	for _, it := range prev {
		if !is[it.Key] {
			left = append(left, it.Key)
		}
	}
	sort.Slice(entered, func(i, j int) bool { return entered[i] < entered[j] })
	sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
	return fmt.Sprintf("+%v -%v", entered, left)
}
