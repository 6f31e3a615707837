package standing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ecmsketch/internal/core"
)

// fakeTarget is a hand-steered evaluation target: tests set estimates and
// the clock directly, so predicate semantics are pinned without sketch
// error in the way. It deliberately does not implement CellIndexer — every
// note conservatively re-checks everything, which is the documented
// no-indexer degradation.
type fakeTarget struct {
	now  core.Tick
	est  map[uint64]float64
	prev map[uint64]float64 // EstimateInterval answers, keyed by item
}

func (f *fakeTarget) Estimate(key uint64, r core.Tick) float64 { return f.est[key] }
func (f *fakeTarget) EstimateInterval(key uint64, from, to core.Tick) float64 {
	return f.prev[key]
}
func (f *fakeTarget) Now() core.Tick { return f.now }

func newTestRegistry(t *testing.T, ft *fakeTarget) *Registry {
	t.Helper()
	r := NewRegistry(Config{Window: 100})
	r.Bind(ft)
	return r
}

// noteKey notes one touched key the way single-event ingest does: as a
// one-event batch.
func noteKey(r *Registry, key uint64) { r.NoteEvents([]core.Event{{Key: key}}) }

func drain(w *Watcher) []Notification {
	var out []Notification
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

func mustSubscribe(t *testing.T, r *Registry, qs ...Query) (SubscriptionInfo, *Watcher) {
	t.Helper()
	info, err := r.Subscribe(qs)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	w, _, _, err := r.Attach(info.ID, 0, false)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return info, w
}

func TestThresholdEdges(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 10}}
	r := newTestRegistry(t, ft)

	// Registration on an already-hot key is a rising edge and fires; the
	// watcher attached after Subscribe must replay it to see it, so attach
	// first via a second subscription order: subscribe, then read the ring.
	info, err := r.Subscribe([]Query{{Kind: KindThreshold, Key: 1, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	w, missed, _, err := r.Attach(info.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(missed) != 1 || !missed[0].Rising || missed[0].Value != 10 {
		t.Fatalf("want initial rising fire at 10, got %+v", missed)
	}

	// Staying high: no re-fire.
	ft.est[1] = 12
	noteKey(r, 1)
	if got := drain(w); len(got) != 0 {
		t.Fatalf("no edge, but fired: %+v", got)
	}
	// Falling below: plain threshold stays silent, but disarms.
	ft.est[1] = 2
	noteKey(r, 1)
	if got := drain(w); len(got) != 0 {
		t.Fatalf("falling edge fired a plain threshold: %+v", got)
	}
	// Crossing up again: fires.
	ft.est[1] = 7
	noteKey(r, 1)
	got := drain(w)
	if len(got) != 1 || !got[0].Rising || got[0].Value != 7 {
		t.Fatalf("want rising fire at 7, got %+v", got)
	}
	if got[0].Query != info.Queries[0] {
		t.Fatalf("notification names query %d, want %d", got[0].Query, info.Queries[0])
	}
}

func TestThresholdBelowFiresOnFallingEdge(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 10}}
	r := newTestRegistry(t, ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindThreshold, Key: 1, Value: 5, Below: true})
	// Arming (already above) is silent for a Below query.
	if got := drain(w); len(got) != 0 {
		t.Fatalf("arming fired: %+v", got)
	}
	ft.est[1] = 1
	noteKey(r, 1)
	got := drain(w)
	if len(got) != 1 || got[0].Rising || got[0].Value != 1 {
		t.Fatalf("want falling fire at 1, got %+v", got)
	}
}

func TestDisarmedThresholdSkippedOnAdvance(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 1}}
	r := newTestRegistry(t, ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindThreshold, Key: 1, Value: 5})
	// A pure advance must not even evaluate a disarmed threshold: plant an
	// above-threshold estimate, advance, and verify nothing fires (the
	// registry skipped it; expiry can only lower untouched estimates, so
	// this situation cannot arise on a real monotone engine).
	ft.est[1] = 100
	ft.now = 20
	r.NoteAdvance()
	if got := drain(w); len(got) != 0 {
		t.Fatalf("disarmed threshold evaluated on advance: %+v", got)
	}
	// A touch does evaluate it.
	noteKey(r, 1)
	if got := drain(w); len(got) != 1 {
		t.Fatalf("touch did not fire: %+v", got)
	}
}

func TestStrictAdvanceRechecksDisarmed(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 1}}
	r := NewRegistry(Config{Window: 100, StrictAdvance: true})
	r.Bind(ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindThreshold, Key: 1, Value: 5})
	ft.est[1] = 100
	ft.now = 20
	r.NoteAdvance()
	if got := drain(w); len(got) != 1 {
		t.Fatalf("strict advance did not re-check disarmed threshold: %+v", got)
	}
}

func TestRateFires(t *testing.T) {
	ft := &fakeTarget{now: 300, est: map[uint64]float64{1: 4}, prev: map[uint64]float64{1: 10}}
	r := newTestRegistry(t, ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindRate, Key: 1, Range: 100, Factor: 2, Value: 5})
	if got := drain(w); len(got) != 0 {
		t.Fatalf("fired below factor: %+v", got)
	}
	// cur 25 >= 2*prev(10) and >= Value(5): fires once, rising only.
	ft.est[1] = 25
	noteKey(r, 1)
	got := drain(w)
	if len(got) != 1 || got[0].Value != 25 || got[0].Prev != 10 {
		t.Fatalf("want rate fire cur=25 prev=10, got %+v", got)
	}
	// Still high: no re-fire until it drops and spikes again.
	ft.est[1] = 30
	noteKey(r, 1)
	if got := drain(w); len(got) != 0 {
		t.Fatalf("re-fired while high: %+v", got)
	}
	ft.est[1] = 6 // below factor*prev: disarms
	noteKey(r, 1)
	ft.est[1] = 40
	noteKey(r, 1)
	if got := drain(w); len(got) != 1 {
		t.Fatalf("second spike did not fire: %+v", got)
	}
}

func TestTopKMembership(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 5, 2: 3, 3: 1}}
	r := newTestRegistry(t, ft)
	info, err := r.Subscribe([]Query{{Kind: KindTopK, K: 2, Keys: []uint64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	w, missed, _, err := r.Attach(info.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Initial membership {1,2} fires at registration.
	if len(missed) != 1 || len(missed[0].Top) != 2 || missed[0].Top[0].Key != 1 || missed[0].Top[1].Key != 2 {
		t.Fatalf("want initial top [1 2], got %+v", missed)
	}
	// Key 3 overtakes: entered/left diff.
	ft.est[3] = 10
	noteKey(r, 3)
	got := drain(w)
	if len(got) != 1 {
		t.Fatalf("membership change did not fire: %+v", got)
	}
	n := got[0]
	if len(n.Entered) != 1 || n.Entered[0] != 3 || len(n.Left) != 1 || n.Left[0] != 2 {
		t.Fatalf("want entered [3] left [2], got entered %v left %v", n.Entered, n.Left)
	}
	if n.Top[0].Key != 3 || n.Top[1].Key != 1 {
		t.Fatalf("want top [3 1], got %+v", n.Top)
	}
	// Rank swap without membership change: silent unless RankChanges.
	ft.est[1], ft.est[3] = 20, 10
	noteKey(r, 1)
	if got := drain(w); len(got) != 0 {
		t.Fatalf("rank-only change fired without RankChanges: %+v", got)
	}
}

func TestTopKRankChanges(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 5, 2: 3}}
	r := newTestRegistry(t, ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindTopK, K: 2, Keys: []uint64{1, 2}, RankChanges: true})
	ft.est[2] = 9
	noteKey(r, 2)
	got := drain(w)
	if len(got) != 1 || got[0].Top[0].Key != 2 {
		t.Fatalf("rank change did not fire with RankChanges: %+v", got)
	}
}

func TestLearnedTopKAdmitsTouchedKeys(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{7: 4}}
	r := newTestRegistry(t, ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindTopK, K: 3})
	ft.est[7] = 4
	noteKey(r, 7)
	got := drain(w)
	if len(got) != 1 || len(got[0].Top) != 1 || got[0].Top[0].Key != 7 {
		t.Fatalf("learned candidate not admitted: %+v", got)
	}
}

func TestRequireKeysRejectsLearnedTopK(t *testing.T) {
	r := NewRegistry(Config{Window: 100, RequireKeys: true})
	if _, err := r.Subscribe([]Query{{Kind: KindTopK, K: 3}}); err == nil {
		t.Fatal("learned top-k accepted on a RequireKeys registry")
	}
	if _, err := r.Subscribe([]Query{{Kind: KindTopK, K: 3, Keys: []uint64{1, 2}}}); err != nil {
		t.Fatalf("explicit top-k rejected: %v", err)
	}
}

func TestValidation(t *testing.T) {
	r := NewRegistry(Config{Window: 100})
	bad := []Query{
		{Kind: KindThreshold, Key: 1},              // zero threshold
		{Kind: KindRate, Key: 1},                   // zero factor
		{Kind: KindTopK},                           // zero K
		{Kind: KindTopK, K: maxTopKCandidates + 1}, // oversize K
		{Kind: Kind(99), Key: 1, Value: 1},         // unknown kind
		{Kind: KindThreshold, Key: 1, Value: -1},   // negative
	}
	for i, q := range bad {
		if _, err := r.Subscribe([]Query{q}); err == nil {
			t.Errorf("bad query %d accepted: %+v", i, q)
		}
	}
	if _, err := r.Subscribe(nil); err == nil {
		t.Error("empty subscription accepted")
	}
}

func TestRingReplayAndGap(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 0}}
	r := NewRegistry(Config{Window: 100, RingSize: 4})
	r.Bind(ft)
	info, err := r.Subscribe([]Query{{Kind: KindThreshold, Key: 1, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Fire 6 crossings: seqs 1..6; the 4-slot ring retains 3..6.
	for i := 0; i < 6; i++ {
		ft.est[1] = 10
		noteKey(r, 1)
		ft.est[1] = 0
		noteKey(r, 1)
	}
	w, missed, start, err := r.Attach(info.ID, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Detach(w)
	if start != 0 {
		t.Fatalf("start = %d, want the resume point 0", start)
	}
	if len(missed) != 4 {
		t.Fatalf("replay returned %d notifications, want the 4 the ring holds", len(missed))
	}
	for i, n := range missed {
		if want := uint64(3 + i); n.Seq != want {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, n.Seq, want)
		}
	}
	// Resuming inside the ring horizon replays exactly the tail.
	w2, missed2, _, err := r.Attach(info.ID, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Detach(w2)
	if len(missed2) != 2 || missed2[0].Seq != 5 || missed2[1].Seq != 6 {
		t.Fatalf("resume=4 replayed %+v, want seqs [5 6]", missed2)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 0}}
	r := NewRegistry(Config{Window: 100, QueueSize: 1})
	r.Bind(ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindThreshold, Key: 1, Value: 5})
	for i := 0; i < 3; i++ {
		ft.est[1] = 10
		noteKey(r, 1)
		ft.est[1] = 0
		noteKey(r, 1)
	}
	if _, _, _, dropped := r.Stats(); dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (queue of 1, 3 fires, nothing drained)", dropped)
	}
	got := drain(w)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("queued notification = %+v, want the first fire", got)
	}
}

func TestUnsubscribeClosesWatchers(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{}}
	r := newTestRegistry(t, ft)
	info, w := mustSubscribe(t, r, Query{Kind: KindThreshold, Key: 1, Value: 5})
	if !r.Unsubscribe(info.ID) {
		t.Fatal("Unsubscribe reported unknown ID")
	}
	if _, ok := <-w.C; ok {
		t.Fatal("watcher channel still open after Unsubscribe")
	}
	if r.Has(info.ID) {
		t.Fatal("Has true after Unsubscribe")
	}
	if _, _, _, err := r.Attach(info.ID, 0, false); err == nil {
		t.Fatal("Attach succeeded after Unsubscribe")
	}
}

func TestKickClosesWatchersButKeepsSubscription(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{}}
	r := newTestRegistry(t, ft)
	info, w := mustSubscribe(t, r, Query{Kind: KindThreshold, Key: 1, Value: 5})
	if !r.Kick(info.ID) {
		t.Fatal("Kick reported unknown ID")
	}
	if _, ok := <-w.C; ok {
		t.Fatal("watcher channel still open after Kick")
	}
	if !r.Has(info.ID) {
		t.Fatal("subscription gone after Kick")
	}
	if _, _, _, err := r.Attach(info.ID, 0, false); err != nil {
		t.Fatalf("re-Attach after Kick: %v", err)
	}
}

// flipTarget is a race-safe target whose one key flips between hot and
// cold, driving threshold edges from a concurrent storm goroutine.
type flipTarget struct{ hot atomic.Bool }

func (f *flipTarget) Estimate(key uint64, r core.Tick) float64 {
	if f.hot.Load() {
		return 10
	}
	return 0
}
func (f *flipTarget) EstimateInterval(key uint64, from, to core.Tick) float64 { return 0 }
func (f *flipTarget) Now() core.Tick                                          { return 10 }

// TestLifecycleChurnRace exercises concurrent subscribe/attach/detach/
// unsubscribe against a notification storm; run with -race.
func TestLifecycleChurnRace(t *testing.T) {
	ft := &flipTarget{}
	r := NewRegistry(Config{Window: 100})
	r.Bind(ft)
	stop := make(chan struct{})
	var storm, churn sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ft.hot.Store(!ft.hot.Load())
			noteKey(r, 1)
			r.NoteAdvance()
		}
	}()
	for g := 0; g < 8; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; i < 50; i++ {
				info, err := r.Subscribe([]Query{{Kind: KindThreshold, Key: 1, Value: 5}})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				w, _, _, err := r.Attach(info.ID, 0, i%2 == 0)
				if err != nil {
					t.Errorf("goroutine %d: Attach: %v", g, err)
					return
				}
				drain(w)
				if i%3 == 0 {
					r.Kick(info.ID)
				}
				r.Detach(w)
				if !r.Unsubscribe(info.ID) {
					t.Errorf("goroutine %d: Unsubscribe lost the subscription", g)
					return
				}
			}
		}(g)
	}
	churn.Wait()
	close(stop)
	storm.Wait()
	if subs, _, _, _ := r.Stats(); subs != 0 {
		t.Fatalf("%d subscriptions leaked", subs)
	}
}

func TestNotificationJSONRoundTrip(t *testing.T) {
	for _, n := range []Notification{
		{Seq: 3, Query: 7, Kind: KindThreshold, Key: 1<<63 + 5, Value: 12.5, Prev: 1, Rising: true, Now: 1 << 62, At: 1234567890123456789},
		{Seq: 9, Query: 2, Kind: KindTopK, Now: 44, Top: []Item{{Key: 18446744073709551615, Estimate: 2.5}, {Key: 3, Estimate: 1}}, Entered: []uint64{3}, Left: []uint64{9}},
		{Seq: 1, Query: 1, Kind: KindRate, Key: 8, Value: 30, Prev: 10, Rising: true, Now: 100},
	} {
		enc := AppendNotificationJSON(nil, n)
		dec, err := ParseNotificationJSON(enc)
		if err != nil {
			t.Fatalf("parse %s: %v", enc, err)
		}
		if fmt.Sprintf("%+v", dec) != fmt.Sprintf("%+v", n) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v\n enc %s", n, dec, enc)
		}
	}
}
