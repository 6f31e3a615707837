package standing

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// fakeTarget is a hand-steered evaluation target: tests set estimates and
// the clock directly, so predicate semantics are pinned without sketch
// error in the way. It deliberately does not implement CellIndexer — every
// note conservatively re-checks everything, which is the documented
// no-indexer degradation. Its window is 100 ticks; algo picks the advance
// re-check policy (the zero value is EH).
type fakeTarget struct {
	now  core.Tick
	est  map[uint64]float64
	algo window.Algorithm
}

func (f *fakeTarget) Estimate(key uint64, r core.Tick) float64 { return f.est[key] }
func (f *fakeTarget) Now() core.Tick                           { return f.now }
func (f *fakeTarget) Params() core.Params {
	return core.Params{WindowLength: 100, Algorithm: f.algo}
}

func newTestRegistry(t *testing.T, ft *fakeTarget) *Registry {
	t.Helper()
	r := NewRegistry(Config{})
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

// TestStrictAdvanceRechecksDisarmed: bound to a randomized-wave target, the
// registry re-checks disarmed thresholds on pure advances too.
func TestStrictAdvanceRechecksDisarmed(t *testing.T) {
	ft := &fakeTarget{now: 10, est: map[uint64]float64{1: 1}, algo: window.AlgoRW}
	r := newTestRegistry(t, ft)
	_, w := mustSubscribe(t, r, Query{Kind: KindThreshold, Key: 1, Value: 5})
	ft.est[1] = 100
	ft.now = 20
	r.NoteAdvance()
	if got := drain(w); len(got) != 1 {
		t.Fatalf("strict advance did not re-check disarmed threshold: %+v", got)
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

// sketchTarget is a real ECM-sketch under the registry, fed and noted one
// arrival at a time the way a site's ingest path does.
func sketchTarget(t *testing.T, window core.Tick) (*core.Sketch, *Registry) {
	t.Helper()
	sk, err := core.New(core.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: window, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Config{})
	r.Bind(sk)
	return sk, r
}

// TestLearnedTopKCandidateBounded: under heavy churn — 20,000 arrivals over
// 100,000 distinct keys plus 5 recurring hot keys — a learned set never holds
// more than 8·K candidates after a pass, and the hot keys hold the top 3.
func TestLearnedTopKCandidateBounded(t *testing.T) {
	const k = 5
	sk, r := sketchTarget(t, 10000)
	_, w := mustSubscribe(t, r, Query{Kind: KindTopK, K: k})
	p := r.preds[0]
	rng := rand.New(rand.NewSource(4))
	for now := core.Tick(1); now <= 20000; now++ {
		key := uint64(rng.Intn(100000))
		if rng.Intn(5) == 0 {
			key = uint64(rng.Intn(5))
		}
		sk.Add(key, now)
		noteKey(r, key)
		if n := len(p.scores); n > 8*k {
			t.Fatalf("tick %d: learned set holds %d candidates, want at most %d", now, n, 8*k)
		}
		drain(w)
	}
	if len(p.members) < 3 {
		t.Fatalf("membership %+v, want at least 3 members", p.members)
	}
	for i, it := range p.members[:3] {
		if it.Key >= 5 {
			t.Errorf("rank %d is churn key %d (top=%+v)", i, it.Key, p.members)
		}
	}
}

// TestLearnedTopKWindowDecay: a key hot early leaves the learned membership
// once the window slides past its burst, and the notification says so.
func TestLearnedTopKWindowDecay(t *testing.T) {
	sk, r := sketchTarget(t, 100)
	_, w := mustSubscribe(t, r, Query{Kind: KindTopK, K: 2})
	for now := core.Tick(1); now <= 80; now++ {
		sk.Add(7, now)
		noteKey(r, 7)
	}
	if got := drain(w); len(got) != 1 || got[0].Top[0].Key != 7 {
		t.Fatalf("early burst: %+v, want one notification with key 7 entering", got)
	}
	for now := core.Tick(300); now <= 380; now++ {
		sk.Add(8, now)
		noteKey(r, 8)
	}
	got := drain(w)
	if len(got) != 1 {
		t.Fatalf("late burst fired %d notifications, want 1: %+v", len(got), got)
	}
	n := got[0]
	if len(n.Top) != 1 || n.Top[0].Key != 8 || len(n.Left) != 1 || n.Left[0] != 7 {
		t.Fatalf("after decay: top %+v left %v, want only key 8, key 7 left", n.Top, n.Left)
	}
}

func TestRequireKeysRejectsLearnedTopK(t *testing.T) {
	r := NewRegistry(Config{RequireKeys: true})
	if _, err := r.Subscribe([]Query{{Kind: KindTopK, K: 3}}); err == nil {
		t.Fatal("learned top-k accepted on a RequireKeys registry")
	}
	if _, err := r.Subscribe([]Query{{Kind: KindTopK, K: 3, Keys: []uint64{1, 2}}}); err != nil {
		t.Fatalf("explicit top-k rejected: %v", err)
	}
}

func TestValidation(t *testing.T) {
	r := NewRegistry(Config{})
	bad := []Query{
		{Kind: KindThreshold, Key: 1},              // zero threshold
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
	r := NewRegistry(Config{})
	r.SetLimits(4, 0)
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
	r := NewRegistry(Config{})
	r.SetLimits(0, 1)
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
func (f *flipTarget) Params() core.Params                                     { return core.Params{WindowLength: 100} }

// TestLifecycleChurnRace exercises concurrent subscribe/attach/detach/
// unsubscribe against a notification storm; run with -race.
func TestLifecycleChurnRace(t *testing.T) {
	ft := &flipTarget{}
	r := NewRegistry(Config{})
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

// TestSubscribeCodecRoundTrip pins the one subscribe-request codec: every
// query shape MarshalSubscribeJSON encodes comes back unchanged through the
// server's own parser, and the body is byte-for-byte the one ecmclient has
// always sent.
func TestSubscribeCodecRoundTrip(t *testing.T) {
	queries := []Query{
		{Kind: KindThreshold, Key: 42, Range: 600, Value: 12.5},
		{Kind: KindThreshold, Key: math.MaxUint64, Value: 3, Below: true},
		{Kind: KindTopK, K: 2, Keys: []uint64{1, 2, 3}, RankChanges: true, Range: 50},
		{Kind: KindTopK, K: 5}, // learned: no watchlist
	}
	for i, q := range queries {
		body, err := MarshalSubscribeJSON([]Query{q})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got, err := parseSubscribe(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("query %d: %s does not parse: %v", i, body, err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], q) {
			t.Fatalf("query %d: %s parsed to %+v, want %+v", i, body, got, q)
		}
	}
	body, err := MarshalSubscribeJSON(queries)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"queries":[{"kind":"threshold","ikey":"42","range":600,"value":12.5},` +
		`{"kind":"threshold","ikey":"18446744073709551615","value":3,"below":true},` +
		`{"kind":"topk","keys":[{"ikey":"1"},{"ikey":"2"},{"ikey":"3"}],"k":2,"range":50,"rankChanges":true},` +
		`{"kind":"topk","k":5}]}`
	if string(body) != want {
		t.Fatalf("subscribe body\n got %s\nwant %s", body, want)
	}
	// The retired window-over-window "rate" kind parses as any unknown kind.
	rate := `{"queries":[{"kind":"rate","ikey":"7","range":100,"value":2}]}`
	if _, err := parseSubscribe(strings.NewReader(rate)); err == nil || !strings.Contains(err.Error(), `unknown query kind "rate"`) {
		t.Fatalf("rate subscribe: err %v, want unknown query kind", err)
	}
}
