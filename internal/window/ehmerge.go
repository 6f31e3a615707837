package window

import (
	"cmp"
	"math"
	"slices"
)

// replayEvent is one simulated insertion used when aggregating histograms:
// n arrivals at tick t.
type replayEvent struct {
	t Tick
	n uint64
}

func byTick(a, b replayEvent) int { return cmp.Compare(a.t, b.t) }

// replayRun is one input synopsis's share of the Theorem 4 replay: its
// arrivals as a stream of events in tick order. A synopsis stores its
// content oldest → newest (EH buckets are disjoint intervals, wave entries
// are rank-ordered), so the stream is read straight off the input — a bank
// cell's level rings are walked in place, highest size class first — and
// never materialized or sorted. Inputs that are only available lowered (a
// wave's segment log, a corrupt cell) stream from an event slice instead.
type replayRun struct {
	t Tick // head event, valid while the run is live
	n uint64

	events []replayEvent // slice-backed run: the events after the head

	// Ring-backed run (bank != nil): the walk stands at bucket j of level lv
	// of dirs, the cell's level directory, and endN arrivals of the bucket
	// whose first half is the head are still due at endT.
	bank  *EHBank
	dirs  []ehLevel
	lv, j int
	endT  Tick
	endN  uint64
}

// advance moves the head to the run's next event; false means exhausted.
func (r *replayRun) advance() bool {
	if r.endN > 0 {
		r.t, r.n, r.endN = r.endT, r.endN, 0
		return true
	}
	if r.bank == nil {
		if len(r.events) == 0 {
			return false
		}
		r.t, r.n, r.events = r.events[0].t, r.events[0].n, r.events[1:]
		return true
	}
	for ; r.lv >= 0; r.lv, r.j = r.lv-1, 0 {
		d := &r.dirs[r.lv]
		if r.j == int(d.n) {
			continue
		}
		bk := r.bank.at(d, r.j)
		r.j++
		// ⌈s/2⌉ arrivals at the bucket's start, ⌊s/2⌋ at its end; a bucket
		// confined to one tick replays whole.
		size := uint64(1) << uint(r.lv)
		r.t, r.n = bk.start, size
		if bk.end != bk.start {
			r.n, r.endT, r.endN = size-size/2, bk.end, size/2
		}
		return true
	}
	return false
}

// runMerger is the k-way merge at the heart of every order-preserving
// aggregation: it drains k tick-ordered runs in global tick order, ties
// going to the earlier input — a rule, not an accident of the scan: when
// expiry is pending at a tick, the order its events replay in can change the
// merged cell (TestReplayTieOrderIsVisible). k is the fan-in of a merge (a
// handful), so the minimum is a linear scan. The zero value is ready; a
// merger is reused across cells and keeps its run storage.
type runMerger struct {
	runs []replayRun // live runs, in input order
}

// begin empties the merger ahead of a merge of up to k runs.
func (m *runMerger) begin(k int) {
	if cap(m.runs) < k {
		m.runs = make([]replayRun, 0, k)
	}
	m.runs = m.runs[:0]
}

// push admits the run r was set up as, unless it is empty.
func (m *runMerger) push(r replayRun) {
	if r.advance() {
		m.runs = append(m.runs, r)
	}
}

// addEvents admits a run of lowered events. Every synopsis lowers to a
// tick-ordered run; one that does not was decoded from a corrupt encoding
// and is put in order here, on its own, so the merge below has one shape.
func (m *runMerger) addEvents(events []replayEvent) {
	if !slices.IsSortedFunc(events, byTick) {
		slices.SortStableFunc(events, byTick)
	}
	m.push(replayRun{events: events})
}

// addCell admits cell i of bank in, walked in place.
func (m *runMerger) addCell(in *EHBank, i int) {
	if !in.cellTickOrdered(i) {
		m.addEvents(lowerBuckets(in.Buckets(i), splitHalfHalf))
		return
	}
	c := &in.cells[i]
	m.push(replayRun{bank: in, dirs: in.dirs[i*in.maxLv:][:c.nLv], lv: int(c.nLv) - 1})
}

// next pops the globally earliest pending event.
func (m *runMerger) next() (t Tick, n uint64, ok bool) {
	runs := m.runs
	if len(runs) == 0 {
		return 0, 0, false
	}
	best, t := 0, runs[0].t
	for k := 1; k < len(runs); k++ {
		if h := runs[k].t; h < t {
			best, t = k, h
		}
	}
	r := &runs[best]
	n = r.n
	if !r.advance() {
		// Close the gap keeping input order, and drop the vacated slot's
		// reference to its input: the storage outlives the merge.
		last := len(runs) - 1
		copy(runs[best:], runs[best+1:])
		runs[last] = replayRun{}
		m.runs = runs[:last]
	}
	return t, n, true
}

// cellTickOrdered reports whether cell i's buckets, read oldest → newest,
// have non-decreasing boundary ticks — true of every cell built by arrivals
// or merges. UnmarshalCell delta-decodes ticks but files each bucket under
// the size class its encoding names, so sizes out of level order (or a tick
// delta that wraps) leave a cell whose level walk jumps back in time.
func (b *EHBank) cellTickOrdered(i int) bool {
	var prev Tick
	for lv := int(b.cells[i].nLv) - 1; lv >= 0; lv-- {
		d := b.level(i, lv)
		for j := 0; j < int(d.n); j++ {
			bk := b.at(d, j)
			if bk.start < prev || bk.end < bk.start {
				return false
			}
			prev = bk.end
		}
	}
	return true
}

// splitFunc distributes a bucket's size across its two boundary ticks.
type splitFunc func(b Bucket) (atStart, atEnd uint64)

func splitHalfHalf(b Bucket) (uint64, uint64) {
	half := b.Size / 2
	return b.Size - half, half
}

// lowerBuckets lowers one synopsis's bucket list (oldest → newest) into its
// replay run.
func lowerBuckets(bs []Bucket, split splitFunc) []replayEvent {
	dst := make([]replayEvent, 0, 2*len(bs))
	for _, b := range bs {
		s, e := split(b)
		if b.Start == b.End {
			if b.Size > 0 {
				dst = append(dst, replayEvent{t: b.Start, n: b.Size})
			}
			continue
		}
		if s > 0 {
			dst = append(dst, replayEvent{t: b.Start, n: s})
		}
		if e > 0 {
			dst = append(dst, replayEvent{t: b.End, n: e})
		}
	}
	return dst
}

// MergedRelativeError returns the worst-case relative error of aggregating
// histograms of error eps into a histogram of error epsPrime (Theorem 4):
// eps + eps' + eps·eps'.
func MergedRelativeError(eps, epsPrime float64) float64 {
	return eps + epsPrime + eps*epsPrime
}

// PlanLevelEpsilon returns the per-level error parameter that individual
// exponential histograms must be initialized with so that after h levels of
// hierarchical aggregation the final histogram has relative error at most
// target (Section 5.1, multi-level aggregation):
//
//	ε_level = (√(1+2h+h²+4h·target) − 1 − h) / (2h)
//
// For h = 0 (no aggregation) the target itself is returned.
func PlanLevelEpsilon(target float64, h int) float64 {
	if h <= 0 {
		return target
	}
	hf := float64(h)
	return (math.Sqrt(1+2*hf+hf*hf+4*hf*target) - 1 - hf) / (2 * hf)
}

// MultiLevelRelativeError bounds the relative error after h aggregation
// levels of histograms configured with error eps: h·ε(1+ε) + ε (Section 5.1).
func MultiLevelRelativeError(eps float64, h int) float64 {
	return float64(h)*eps*(1+eps) + eps
}
