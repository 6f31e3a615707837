package window

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// This file holds what the two wave banks share: the stored-position type,
// the level sizing, and the arena of level rings both are laid out on.

// waveEntry is one stored position of a wave: the tick of an arrival and the
// word that names it. In a deterministic wave id is the arrival's rank (its
// 1-based count since the beginning of the stream); in a randomized wave it
// is the unique event identifier, which determines the event's level
// assignment and is what makes randomized waves duplicate-insensitive and
// losslessly mergeable.
type waveEntry struct {
	t  Tick
	id uint64
}

// waveLevels returns the top level index L such that c·2^L covers u arrivals.
func waveLevels(u uint64, c int) int {
	if u <= uint64(c) {
		return 1
	}
	q := (u + uint64(c) - 1) / uint64(c)
	return bits.Len64(q-1) + 1
}

// waveRing locates one level's ring inside the slab: slab[off : off+capn],
// oldest entry at head. The zero value is a ring whose chunk has not been
// carved yet.
type waveRing struct {
	off     int32
	capn    int32
	head    int32
	n       int32
	evicted bool // true once an entry has ever been displaced by capacity
}

// waveArena is the flat storage of a wave bank: every cell owns perCell
// consecutive rings of dirs, and every ring's entries live in one chunk of
// slab. A wave's level structure is fixed at construction, so dirs never
// grows; chunks are carved lazily, when a ring first stores an entry, so
// sparse cells cost their directory words instead of the worst case.
//
// A ring starts at firstCap entries and doubles, capped at ringCap — the
// level's capacity budget, past which a push evicts the oldest entry — by
// carving a fresh chunk at the slab end and abandoning the old one. A
// deterministic wave's budget is Θ(1/ε) and it carves it whole (firstCap ==
// ringCap); a randomized wave's is Θ(1/ε²) but usually far from full, so it
// starts at 8. Abandoned chunks are bounded by the doubling schedule to less
// than the live footprint and are reclaimed on Reset.
type waveArena struct {
	ringCap  int
	firstCap int
	perCell  int
	dirs     []waveRing
	slab     []waveEntry
}

func newWaveArena(cells, perCell, ringCap, firstCap int) waveArena {
	return waveArena{
		ringCap:  ringCap,
		firstCap: firstCap,
		perCell:  perCell,
		dirs:     make([]waveRing, cells*perCell),
	}
}

// grow moves ring d into a bigger chunk carved from the end of the slab.
func (a *waveArena) grow(d *waveRing) {
	nc := int(d.capn) * 2
	if nc == 0 {
		nc = a.firstCap
	}
	if nc > a.ringCap {
		nc = a.ringCap
	}
	need := len(a.slab) + nc
	if cap(a.slab) >= need {
		// Reslicing may expose stale entries from before a Reset; harmless,
		// since ring entries are always written before they are read.
		a.slab = a.slab[:need]
	} else {
		grown := make([]waveEntry, need, need*2)
		copy(grown, a.slab)
		a.slab = grown
	}
	off := need - nc
	for k := 0; k < int(d.n); k++ {
		a.slab[off+k] = a.at(d, k)
	}
	d.off, d.capn, d.head = int32(off), int32(nc), 0
}

// at returns the j-th entry (from the oldest) of ring d.
func (a *waveArena) at(d *waveRing, j int) waveEntry {
	p := int(d.head) + j
	if p >= int(d.capn) {
		p -= int(d.capn)
	}
	return a.slab[int(d.off)+p]
}

// front returns the oldest entry of ring d.
func (a *waveArena) front(d *waveRing) waveEntry {
	return a.slab[int(d.off)+int(d.head)]
}

// push appends e to ring d, growing the ring while it is under its budget
// and evicting the oldest entry once it is not.
func (a *waveArena) push(d *waveRing, e waveEntry) {
	if d.n == d.capn {
		if int(d.capn) < a.ringCap {
			a.grow(d)
		} else {
			a.pop(d)
			d.evicted = true
		}
	}
	p := int(d.head) + int(d.n)
	if p >= int(d.capn) {
		p -= int(d.capn)
	}
	a.slab[int(d.off)+p] = e
	d.n++
}

// pop drops the oldest entry of ring d.
func (a *waveArena) pop(d *waveRing) {
	h := d.head + 1
	if h == d.capn {
		h = 0
	}
	d.head = h
	d.n--
}

// searchTickAfter returns the index (from the front) of the oldest entry of
// ring d with t > s, or d.n if none.
func (a *waveArena) searchTickAfter(d *waveRing, s Tick) int {
	lo, hi := 0, int(d.n)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.at(d, mid).t > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// finestCovering picks, among the n rings starting at dirs[base] (one wave's
// levels, finest first), the finest whose stored range covers the boundary
// since: its oldest entry is at or before since, or it never evicted, or it
// holds fewer entries than its budget — an evicting push leaves a ring full,
// so it has since expired an entry newer than all it evicted, and callers
// clamp since to the window start.
func (a *waveArena) finestCovering(base, n int, since Tick) int {
	for j := 0; j < n; j++ {
		d := &a.dirs[base+j]
		if !d.evicted || int(d.n) < a.ringCap || a.front(d).t <= since {
			return j
		}
	}
	return n - 1
}

// rings returns cell i's rings.
func (a *waveArena) rings(i int) []waveRing {
	return a.dirs[i*a.perCell : (i+1)*a.perCell]
}

// waveClock is the part of a wave cell's header both banks keep.
type waveClock struct {
	now    Tick // latest tick observed by the cell
	oldEnd Tick // conservative lower bound on the earliest stored tick
}

// advance moves cell i, whose clock is c, to tick t over a window of length
// ticks and drops the entries that left it, reporting whether any did. The
// cached oldEnd lower bound short-circuits the common case — nothing to
// expire — without scanning the level directory.
func (a *waveArena) advance(i int, c *waveClock, t, length Tick) (popped bool) {
	if t > c.now {
		c.now = t
	}
	if c.now < length {
		return false
	}
	cut := c.now - length
	if c.oldEnd > cut {
		return false
	}
	c.oldEnd = emptyOldEnd
	rs := a.rings(i)
	for j := range rs {
		d := &rs[j]
		for d.n > 0 && a.front(d).t <= cut {
			a.pop(d)
			popped = true
		}
		if d.n > 0 {
			c.oldEnd = min(c.oldEnd, a.front(d).t)
		}
	}
	return popped
}

// ringsUntouched reports whether no ring of cell i stores an entry or carries
// an eviction mark.
func (a *waveArena) ringsUntouched(i int) bool {
	for _, d := range a.rings(i) {
		if d.n != 0 || d.evicted {
			return false
		}
	}
	return true
}

// resetRings empties cell i's rings, keeping their carved chunks for refills.
func (a *waveArena) resetRings(i int) {
	rs := a.rings(i)
	for j := range rs {
		rs[j].head, rs[j].n, rs[j].evicted = 0, 0, false
	}
}

// resetAll returns every ring to the uncarved state and reclaims the slab
// (abandoned growth chunks included) for refills.
func (a *waveArena) resetAll() {
	clear(a.dirs)
	a.slab = a.slab[:0]
}

// clone returns a copy that shares no memory with a: two slab memcpys.
func (a *waveArena) clone() waveArena {
	c := *a
	c.dirs = cloneExact(a.dirs)
	c.slab = cloneExact(a.slab)
	return c
}

// memoryBytes reports the heap footprint of the directory and the slab,
// abandoned growth chunks included.
func (a *waveArena) memoryBytes() int {
	const (
		ringBytes  = 20 // waveRing: four int32s + evicted, padded
		entryBytes = 16 // waveEntry: tick + id
	)
	return len(a.dirs)*ringBytes + cap(a.slab)*entryBytes
}

// The ring payload shared by the wireDW/wireRW cell encodings: per ring its
// entry count, its eviction flag, then the entries oldest first with
// delta-encoded ticks. Deterministic waves delta-encode the ranks too
// (deltaID); randomized waves ship their identifiers raw — they are
// incompressible, which is the dominant reason RW transfer volume exceeds EH
// by an order of magnitude in the distributed experiments.

// appendRings appends cell i's ring payload to dst.
func (a *waveArena) appendRings(dst []byte, i int, deltaID bool) []byte {
	rs := a.rings(i)
	for j := range rs {
		d := &rs[j]
		dst = binary.AppendUvarint(dst, uint64(d.n))
		if d.evicted {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		var pt Tick
		var pid uint64
		for k := 0; k < int(d.n); k++ {
			e := a.at(d, k)
			dst = binary.AppendUvarint(dst, e.t-pt)
			dst = binary.AppendUvarint(dst, e.id-pid)
			pt = e.t
			if deltaID {
				pid = e.id
			}
		}
	}
	return dst
}

// readRings decodes a ring payload into cell i's (empty) rings and returns
// the earliest tick stored (emptyOldEnd when none).
func (a *waveArena) readRings(r *wireReader, i int, deltaID bool, name string) (oldest Tick, err error) {
	oldest = emptyOldEnd
	rs := a.rings(i)
	for j := range rs {
		cnt, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		ev, err := r.byte1()
		if err != nil {
			return 0, err
		}
		if cnt > uint64(len(r.b)) { // cheap corruption guard: ≥1 byte per entry
			return 0, fmt.Errorf("window: corrupt %s encoding", name)
		}
		d := &rs[j]
		var pt Tick
		var pid uint64
		for k := uint64(0); k < cnt; k++ {
			dt, err := r.uvarint()
			if err != nil {
				return 0, err
			}
			id, err := r.uvarint()
			if err != nil {
				return 0, err
			}
			pt += dt
			id += pid
			if deltaID {
				pid = id
			}
			a.push(d, waveEntry{t: pt, id: id})
		}
		d.evicted = ev == 1
		if d.n > 0 {
			oldest = min(oldest, a.front(d).t)
		}
	}
	return oldest, nil
}

// waveReplayEvents converts rank-sorted distinct entries of a deterministic
// wave into replay events and appends them to dst. Each segment between
// consecutive ranks r1 < r2 holds the r2−r1 arrivals after r1 up to and
// including r2, replayed like an exponential-histogram bucket: ⌊(r2−r1)/2⌋
// at the older boundary tick and the rest at the newer one. The arrival
// ranked r2 is the segment's newest and was stored at cur's tick, so a
// one-arrival segment lands at its own tick rather than one boundary early.
//
// The oldest stored entry stands for itself and for the unseen arrivals
// before it that est, the wave's estimate of its whole window, still counts
// (half a level's spacing); a replay that dropped them would lose up to 2ε
// of the window at every merge.
func waveReplayEvents(dst []replayEvent, entries []waveEntry, est float64) []replayEvent {
	if len(entries) == 0 {
		return dst
	}
	head := uint64(1)
	if tail, n := entries[len(entries)-1].id-entries[0].id, uint64(est); n > tail+1 {
		head = n - tail
	}
	dst = append(dst, replayEvent{t: entries[0].t, n: head})
	for i := 1; i < len(entries); i++ {
		prev, cur := entries[i-1], entries[i]
		n := cur.id - prev.id
		if n == 0 {
			continue
		}
		if half := n / 2; half > 0 {
			dst = append(dst, replayEvent{t: prev.t, n: half})
		}
		dst = append(dst, replayEvent{t: cur.t, n: n - n/2})
	}
	return dst
}

// sortDedupEntriesByRank sorts a deterministic wave's entries by rank and
// removes duplicates in place. Equal ranks within one wave always name the
// same arrival, so the result is a deterministic linearization of the stored
// stream positions.
func sortDedupEntriesByRank(all []waveEntry) []waveEntry {
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	out := all[:0]
	var last uint64
	for _, e := range all {
		if len(out) == 0 || e.id != last {
			out = append(out, e)
			last = e.id
		}
	}
	return out
}
