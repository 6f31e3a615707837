package core

import (
	"sync"
	"sync/atomic"
)

// View is a frozen sketch published for reads: settled at its own clock and
// never mutated again, so every answer it gives is a pure function of the
// query. Point estimates read the sketch directly. The aggregates ‖a_r‖₁
// and F₂, each a sweep over all d×w counters, are remembered for the last
// range asked, so the many readers polling one view pay for one sweep
// between them. The memo lives here and not on Sketch because a Sketch
// mutates.
//
// All methods are safe for concurrent use.
type View struct {
	sk *Sketch

	// mu guards last, the memo entry of the most recent range asked for.
	// A sweep runs outside mu: readers of the same range wait on the
	// entry's once, readers of other ranges never wait on it.
	mu   sync.Mutex
	last *viewAgg
	// sweeps counts totalAndSelfJoin passes run.
	sweeps atomic.Int64
}

// viewAgg is one memo entry: the aggregates of range r, filled once.
type viewAgg struct {
	r               Tick
	once            sync.Once
	total, selfJoin float64
}

// NewView publishes sk for reads. The caller must have settled sk at its
// own clock (sk.Advance(sk.Now())) and must never mutate it again.
func NewView(sk *Sketch) *View { return &View{sk: sk} }

// Sketch returns the frozen sketch; callers must not mutate it.
func (v *View) Sketch() *Sketch { return v.sk }

// aggregates returns (‖a_r‖₁, F₂) over the last r ticks, bit-identical to
// the sketch's own EstimateTotal and SelfJoin. Ranges past the window are
// keyed as the window, which is what the counters evaluate anyway.
func (v *View) aggregates(r Tick) (total, selfJoin float64) {
	r = min(r, v.sk.wcfg.Length)
	v.mu.Lock()
	e := v.last
	if e == nil || e.r != r {
		e = &viewAgg{r: r}
		v.last = e
	}
	v.mu.Unlock()
	e.once.Do(func() {
		e.total, e.selfJoin = v.sk.totalAndSelfJoin(r)
		v.sweeps.Add(1)
	})
	return e.total, e.selfJoin
}

// EstimateTotal estimates ‖a_r‖₁ over the last r ticks (see
// Sketch.EstimateTotal).
func (v *View) EstimateTotal(r Tick) float64 {
	total, _ := v.aggregates(r)
	return total
}

// SelfJoin estimates F₂ over the last r ticks (see Sketch.SelfJoin).
func (v *View) SelfJoin(r Tick) float64 {
	_, selfJoin := v.aggregates(r)
	return selfJoin
}

// QueryBatch answers q exactly as Sketch.QueryBatch does on the frozen
// sketch, with the requested aggregates taken from the memo.
func (v *View) QueryBatch(q QueryBatch) (QueryResult, error) {
	res, err := v.sk.QueryBatch(QueryBatch{Keys: q.Keys, Range: q.Range})
	if err != nil || !(q.Total || q.SelfJoin) {
		return res, err
	}
	total, selfJoin := v.aggregates(res.Range)
	if q.Total {
		res.Total = total
	}
	if q.SelfJoin {
		res.SelfJoin = selfJoin
	}
	return res, nil
}
