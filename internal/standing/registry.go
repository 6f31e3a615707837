package standing

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// ErrUnknownSubscription is returned by Attach for an ID that was never
// registered or has been unsubscribed.
var ErrUnknownSubscription = errors.New("standing: unknown subscription")

// Registry holds the standing queries of one engine or coordinator, runs
// the incremental evaluator on its change notes, and fans fired
// notifications out to attached watchers. All methods are safe for
// concurrent use; evaluation is serialized on one mutex, so crossings get
// gap-free per-subscription sequence numbers.
type Registry struct {
	mu      sync.Mutex
	cfg     Config
	target  Target
	indexer CellIndexer
	subs    map[string]*subscription
	preds   []*pred
	// ringSize and queueSize size the replay rings and watcher queues
	// created next (see SetLimits).
	ringSize, queueSize int
	// lastNow is the target clock at the previous evaluation pass — the
	// advance detector.
	lastNow core.Tick
	nextID  uint64
	dropped uint64
	// scratch buffers reused across evaluation passes (all under mu).
	cellScratch []int
	itemScratch []Item

	// window and strict are the bound target's: the default Range of
	// queries that leave it zero (its window length), and whether pure
	// clock advances re-check disarmed thresholds too (the randomized-wave
	// algorithm, whose level-switch resampling moves estimates of cells
	// the change feed does not report as mutated; EH is monotone under
	// expiry, and DW reports its expiry-driven rises cell by cell through
	// window.AdvanceAll, so both skip them).
	window core.Tick
	strict bool
}

// subscription groups the queries registered by one Subscribe call, the
// sequence counter, the replay ring and the attached watchers.
type subscription struct {
	id       string
	queries  []uint64
	seq      uint64
	ring     []Notification
	watchers map[*Watcher]struct{}
}

// Watcher is one delivery endpoint of a subscription. Receive from C;
// a closed C means the subscription was kicked or removed — re-Attach (the
// subscription may still exist) or stop.
type Watcher struct {
	C   <-chan Notification
	ch  chan Notification
	sub *subscription
}

// pred is one registered query plus its incremental-evaluation state.
type pred struct {
	id  uint64
	sub *subscription
	q   Query
	// cells are the Count-Min cell indices the predicate's estimate reads
	// (nil until an indexing target is bound, or for learned top-k, whose
	// candidate set is open).
	cells []int
	// learned marks a top-k query without an explicit watchlist: its
	// candidates are admitted from the touched keys of ingest notes.
	learned bool
	// Threshold/rate edge state. high is the armed bit; estimates start
	// implicitly below every threshold, so the first evaluation of an
	// already-hot key is a rising edge and fires.
	high    bool
	prevVal float64
	// Top-k state: candidate scores, current membership in rank order.
	scores  map[uint64]float64
	members []Item
}

// NewRegistry builds an empty registry. Bind a target before or after
// registering queries; unbound registries accept subscriptions and start
// evaluating at bind time.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:       cfg,
		ringSize:  defaultRingSize,
		queueSize: defaultQueueSize,
		subs:      make(map[string]*subscription),
	}
}

// SetLimits overrides the replay-ring and watcher-queue capacities
// (defaultRingSize, defaultQueueSize) for subscriptions and watchers created
// after the call; a non-positive value keeps the current capacity.
func (r *Registry) SetLimits(ring, queue int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ring > 0 {
		r.ringSize = ring
	}
	if queue > 0 {
		r.queueSize = queue
	}
}

// Bind points the evaluator at its target engine and runs an initial pass
// over any queries registered while unbound. Rebinding (coordinators swap
// in a fresh merged root every refresh) goes through RefreshTarget instead,
// which also carries the changed-cell set.
func (r *Registry) Bind(t Target) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bindLocked(t)
	if t != nil {
		now := t.Now()
		if now > r.lastNow {
			r.lastNow = now
		}
		for _, p := range r.preds {
			r.evalLocked(p, t, now)
		}
	}
}

func (r *Registry) bindLocked(t Target) {
	r.target = t
	r.indexer = nil
	if t != nil {
		r.indexer, _ = t.(CellIndexer)
		p := t.Params()
		r.window, r.strict = p.WindowLength, p.Algorithm == window.AlgoRW
	}
	if r.indexer != nil {
		for _, p := range r.preds {
			r.indexLocked(p)
		}
	}
}

// indexLocked resolves the predicate's cell list against the bound indexer.
// Cell positions depend only on the sketch geometry (width, depth, seed),
// which every stripe, part and merged root of one deployment shares, so the
// list stays valid across coordinator rebinds.
func (r *Registry) indexLocked(p *pred) {
	if p.learned || r.indexer == nil || p.cells != nil {
		return
	}
	switch p.q.Kind {
	case KindThreshold:
		p.cells = r.indexer.CellIndices(p.q.Key, make([]int, 0, 8))
	case KindTopK:
		cells := make([]int, 0, 8*len(p.q.Keys))
		for _, k := range p.q.Keys {
			cells = r.indexer.CellIndices(k, cells)
		}
		sort.Ints(cells)
		p.cells = cells
	}
}

// SubscriptionInfo is Subscribe's receipt: the subscription ID watchers
// attach with, and one query ID per registered query (in input order) that
// notifications reference.
type SubscriptionInfo struct {
	ID      string
	Queries []uint64
}

// Subscribe registers a batch of standing queries as one subscription. If a
// target is bound, each query is evaluated immediately: predicates whose
// condition already holds fire their initial notification (e.g. a threshold
// query on an already-hot key fires rising at registration).
func (r *Registry) Subscribe(queries []Query) (SubscriptionInfo, error) {
	if len(queries) == 0 {
		return SubscriptionInfo{}, fmt.Errorf("standing: subscription needs at least one query")
	}
	if len(queries) > maxQueriesPerSubscription {
		return SubscriptionInfo{}, fmt.Errorf("standing: at most %d queries per subscription, got %d", maxQueriesPerSubscription, len(queries))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, q := range queries {
		if err := q.validate(r.cfg.RequireKeys); err != nil {
			return SubscriptionInfo{}, fmt.Errorf("standing: query %d: %w", i, err)
		}
	}
	if len(r.subs) >= maxSubscriptions {
		return SubscriptionInfo{}, fmt.Errorf("standing: subscription limit reached (%d)", maxSubscriptions)
	}
	s := &subscription{
		id:       r.newIDLocked(),
		ring:     make([]Notification, r.ringSize),
		watchers: make(map[*Watcher]struct{}),
	}
	info := SubscriptionInfo{ID: s.id, Queries: make([]uint64, 0, len(queries))}
	for _, q := range queries {
		r.nextID++
		p := &pred{id: r.nextID, sub: s, q: q}
		if q.Kind == KindTopK {
			p.scores = make(map[uint64]float64, len(q.Keys))
			for _, k := range q.Keys {
				p.scores[k] = 0
			}
			p.learned = len(q.Keys) == 0
		}
		r.indexLocked(p)
		r.preds = append(r.preds, p)
		s.queries = append(s.queries, p.id)
		info.Queries = append(info.Queries, p.id)
	}
	r.subs[s.id] = s
	if t := r.target; t != nil {
		now := t.Now()
		for _, id := range s.queries {
			r.evalLocked(r.predByIDLocked(id), t, now)
		}
	}
	return info, nil
}

const maxQueriesPerSubscription = 1024

func (r *Registry) predByIDLocked(id uint64) *pred {
	for _, p := range r.preds {
		if p.id == id {
			return p
		}
	}
	return nil
}

func (r *Registry) newIDLocked() string {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back
			// to a counter-derived ID rather than panicking in a server.
			r.nextID++
			return fmt.Sprintf("sub-%d", r.nextID)
		}
		id := hex.EncodeToString(b[:])
		if _, taken := r.subs[id]; !taken {
			return id
		}
	}
}

// Unsubscribe removes a subscription, its queries, and closes all attached
// watchers (their streams end with a bye). Reports whether the ID existed.
func (r *Registry) Unsubscribe(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	if !ok {
		return false
	}
	delete(r.subs, id)
	kept := r.preds[:0]
	for _, p := range r.preds {
		if p.sub != s {
			kept = append(kept, p)
		}
	}
	r.preds = kept
	for w := range s.watchers {
		close(w.ch)
	}
	s.watchers = make(map[*Watcher]struct{})
	return true
}

// Kick closes every watcher of a subscription without removing it — the
// server-side connection drop (streams end; clients reconnect and resume).
func (r *Registry) Kick(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	if !ok {
		return false
	}
	for w := range s.watchers {
		close(w.ch)
	}
	s.watchers = make(map[*Watcher]struct{})
	return true
}

// Has reports whether a subscription is still registered — how a watch
// stream whose channel closed tells "reconnect later" (kicked) from "gone"
// (unsubscribed).
func (r *Registry) Has(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.subs[id]
	return ok
}

// Attach registers a delivery endpoint on a subscription. With replay set,
// notifications after sequence number resume still held by the ring are
// returned for re-delivery and live delivery continues from there — the
// registry lock makes the handoff exact: nothing fired between the replay
// snapshot and the watcher becoming live. Without replay, delivery starts
// at the current sequence. start is the sequence the stream's gap
// accounting begins at.
func (r *Registry) Attach(id string, resume uint64, replay bool) (w *Watcher, missed []Notification, start uint64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	if !ok {
		return nil, nil, 0, ErrUnknownSubscription
	}
	w = &Watcher{ch: make(chan Notification, r.queueSize), sub: s}
	w.C = w.ch
	s.watchers[w] = struct{}{}
	start = s.seq
	if replay {
		start = resume
		ringLen := uint64(len(s.ring))
		lo := resume + 1
		if s.seq > ringLen && lo < s.seq-ringLen+1 {
			lo = s.seq - ringLen + 1
		}
		for i := lo; i <= s.seq; i++ {
			if e := s.ring[(i-1)%ringLen]; e.Seq == i {
				missed = append(missed, e)
			}
		}
	}
	return w, missed, start, nil
}

// Detach unregisters a watcher (stream ended). Safe after Kick/Unsubscribe
// already removed it.
func (r *Registry) Detach(w *Watcher) {
	if w == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(w.sub.watchers, w)
}

// Stats reports registry occupancy: subscriptions, registered queries,
// attached watchers, and notifications dropped on full watcher queues.
func (r *Registry) Stats() (subs, queries, watchers int, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.subs {
		watchers += len(s.watchers)
	}
	return len(r.subs), len(r.preds), watchers, r.dropped
}

// --- Notifier hooks (ingest-side change feed) ---

// NoteEvents notes a landed batch (a one-event batch on the AddN path): the
// touched keys are mapped to their cells and only intersecting predicates
// are re-checked.
func (r *Registry) NoteEvents(events []core.Event) {
	if len(events) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.preds) == 0 {
		r.syncClockLocked()
		return
	}
	keys := make([]uint64, len(events))
	for i := range events {
		keys[i] = events[i].Key
	}
	r.notePassLocked(r.cellSetLocked(keys), keys)
}

// NoteAdvance notes a pure clock advance (expiry only, no arrivals).
func (r *Registry) NoteAdvance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.preds) == 0 {
		r.syncClockLocked()
		return
	}
	r.notePassLocked(changeSet{}, nil)
}

// RefreshTarget atomically swaps the evaluation target (a coordinator's
// freshly merged root) and runs a pass over the accumulated changed cells,
// the coordinator's delta-stream changed-cell indices; all marks
// "everything may have changed" (full baselines).
// The old and new roots share sketch geometry, so predicate cell lists
// carry over.
func (r *Registry) RefreshTarget(t Target, cells []int, all bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bindLocked(t)
	if t == nil {
		return
	}
	r.noteCellsLocked(cells, all)
}

// noteCellsLocked runs a pass over externally-observed cell changes.
func (r *Registry) noteCellsLocked(cells []int, all bool) {
	if len(r.preds) == 0 {
		r.syncClockLocked()
		return
	}
	set := changeSet{all: all}
	if !all {
		set.cells = make(map[int]struct{}, len(cells))
		for _, c := range cells {
			set.cells[c] = struct{}{}
		}
	}
	r.notePassLocked(set, nil)
}

// syncClockLocked keeps the advance detector current while no queries are
// registered, so the first registered query doesn't see a phantom advance.
func (r *Registry) syncClockLocked() {
	if t := r.target; t != nil {
		if now := t.Now(); now > r.lastNow {
			r.lastNow = now
		}
	}
}

// changeSet is the per-pass description of what moved: a cell-index set, or
// the all flag when cell granularity is unavailable (no indexer bound, full
// snapshot applied, oversize delta).
type changeSet struct {
	cells map[int]struct{}
	all   bool
}

func (c changeSet) any() bool { return c.all || len(c.cells) > 0 }

// cellSetLocked maps touched keys to the set of Count-Min cells they land
// in. Without a cell indexer every touch conservatively marks everything.
func (r *Registry) cellSetLocked(keys []uint64) changeSet {
	if r.indexer == nil {
		return changeSet{all: len(keys) > 0}
	}
	set := changeSet{cells: make(map[int]struct{}, 4*len(keys))}
	for _, k := range keys {
		r.cellScratch = r.indexer.CellIndices(k, r.cellScratch[:0])
		for _, c := range r.cellScratch {
			set.cells[c] = struct{}{}
		}
	}
	return set
}

// notePassLocked is the incremental evaluation pass: admit learned top-k
// candidates from the touched keys, then re-check exactly the predicates
// the change set or the clock advance can affect.
func (r *Registry) notePassLocked(changed changeSet, keys []uint64) {
	t := r.target
	if t == nil {
		return
	}
	now := t.Now()
	advanced := now > r.lastNow
	if advanced {
		r.lastNow = now
	}
	for _, p := range r.preds {
		if p.learned && len(keys) > 0 {
			for _, k := range keys {
				if _, ok := p.scores[k]; !ok {
					p.scores[k] = 0
				}
			}
		}
		if r.affectedLocked(p, changed, advanced) {
			r.evalLocked(p, t, now)
		}
	}
}

// affectedLocked decides whether a predicate needs re-checking this pass.
// This is where the incrementality lives — and where its correctness
// argument is pinned by the oracle-equivalence tests:
//
//   - Touched (its cells intersect the change set): always re-check. Cell
//     granularity, not key granularity, so collision-induced estimate
//     changes are caught.
//   - Untouched but the clock advanced: expiry can only lower untouched
//     estimates, so a disarmed threshold stays below and is skipped; armed
//     thresholds (falling edges), rate (the preceding window shrinking can
//     raise the ratio) and top-k (relative order can shuffle) re-check.
func (r *Registry) affectedLocked(p *pred, changed changeSet, advanced bool) bool {
	var touched bool
	if changed.all {
		touched = true
	} else if p.learned || p.cells == nil {
		touched = changed.any()
	} else {
		for _, c := range p.cells {
			if _, ok := changed.cells[c]; ok {
				touched = true
				break
			}
		}
	}
	if touched {
		return true
	}
	switch p.q.Kind {
	case KindThreshold:
		return advanced && (p.high || r.strict)
	default: // KindTopK
		return advanced
	}
}

// rangeOf resolves a query's evaluation range: explicit Range, else the
// bound target's window, else the whole stream seen so far.
func (r *Registry) rangeOf(p *pred, now core.Tick) core.Tick {
	rng := p.q.Range
	if rng == 0 {
		rng = r.window
	}
	if rng == 0 {
		rng = now
	}
	return rng
}

func (r *Registry) evalLocked(p *pred, t Target, now core.Tick) {
	switch p.q.Kind {
	case KindThreshold:
		r.evalThresholdLocked(p, t, now)
	case KindTopK:
		r.evalTopKLocked(p, t, now)
	}
}

func (r *Registry) evalThresholdLocked(p *pred, t Target, now core.Tick) {
	cur := t.Estimate(p.q.Key, r.rangeOf(p, now))
	high := cur >= p.q.Value
	if high != p.high {
		// Rising edges fire plain thresholds; falling edges fire Below
		// ones. The implicit prior state is "below", so registration on an
		// already-hot key is a rising edge, and a Below query arms
		// silently until the key first exceeds the level.
		if high != p.q.Below {
			r.fireLocked(p, Notification{
				Kind:   KindThreshold,
				Key:    p.q.Key,
				Value:  cur,
				Prev:   p.prevVal,
				Rising: high,
				Now:    now,
			})
		}
	}
	p.high, p.prevVal = high, cur
}

func (r *Registry) evalTopKLocked(p *pred, t Target, now core.Tick) {
	rng := r.rangeOf(p, now)
	scored := r.itemScratch[:0]
	for k := range p.scores {
		est := t.Estimate(k, rng)
		p.scores[k] = est
		scored = append(scored, Item{Key: k, Estimate: est})
	}
	r.itemScratch = scored
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Estimate != scored[j].Estimate {
			return scored[i].Estimate > scored[j].Estimate
		}
		return scored[i].Key < scored[j].Key
	})
	// A learned candidate set overprovisions 8·K — window decay can promote
	// a mid-ranked key — and past that keeps the best half, which always
	// covers the current membership (4k ≥ k).
	if p.learned && len(scored) > 8*p.q.K {
		for _, it := range scored[4*p.q.K:] {
			delete(p.scores, it.Key)
		}
		scored = scored[:4*p.q.K]
	}
	n := p.q.K
	if n > len(scored) {
		n = len(scored)
	}
	members := make([]Item, 0, n)
	for _, it := range scored[:n] {
		if it.Estimate > 0 {
			members = append(members, it)
		}
	}

	fire := len(members) != len(p.members)
	if !fire {
		for i := range members {
			if members[i].Key != p.members[i].Key {
				fire = true
				break
			}
		}
		if fire && !p.q.RankChanges {
			// Same size, different order — only a membership change
			// matters unless rank changes were asked for.
			fire = !sameKeySet(members, p.members)
		}
	}
	if fire {
		entered, left := membershipDiff(members, p.members)
		r.fireLocked(p, Notification{
			Kind:    KindTopK,
			Now:     now,
			Top:     members,
			Entered: entered,
			Left:    left,
		})
	}
	p.members = members
}

func sameKeySet(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[uint64]struct{}, len(a))
	for _, it := range a {
		in[it.Key] = struct{}{}
	}
	for _, it := range b {
		if _, ok := in[it.Key]; !ok {
			return false
		}
	}
	return true
}

func membershipDiff(cur, prev []Item) (entered, left []uint64) {
	was := make(map[uint64]struct{}, len(prev))
	for _, it := range prev {
		was[it.Key] = struct{}{}
	}
	is := make(map[uint64]struct{}, len(cur))
	for _, it := range cur {
		is[it.Key] = struct{}{}
		if _, ok := was[it.Key]; !ok {
			entered = append(entered, it.Key)
		}
	}
	for _, it := range prev {
		if _, ok := is[it.Key]; !ok {
			left = append(left, it.Key)
		}
	}
	sort.Slice(entered, func(i, j int) bool { return entered[i] < entered[j] })
	sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
	return entered, left
}

// fireLocked stamps, rings and fans out one notification. The watcher send
// is non-blocking: a full queue drops (counted; the stream's gap accounting
// surfaces it to that watcher as a dropped marker) so delivery can never
// stall the mutating goroutine.
func (r *Registry) fireLocked(p *pred, n Notification) {
	s := p.sub
	s.seq++
	n.Seq = s.seq
	n.Query = p.id
	n.At = time.Now().UnixNano()
	s.ring[(s.seq-1)%uint64(len(s.ring))] = n
	for w := range s.watchers {
		select {
		case w.ch <- n:
		default:
			r.dropped++
		}
	}
}
