package ecmserver

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/internal/standing"
)

func authedServer(t *testing.T, token string) *Server {
	t.Helper()
	srv, err := New(Config{
		Epsilon:      0.05,
		Delta:        0.05,
		WindowLength: 10000,
		Algorithm:    "eh",
		Seed:         7,
		AuthToken:    token,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestAuthToken pins the bearer gate: with AuthToken set, every endpoint —
// queries, subscribe, watch, snapshot — refuses missing or wrong tokens
// with 401 and admits the right one; without AuthToken the surface is open.
func TestAuthToken(t *testing.T) {
	srv := authedServer(t, "s3cret")
	paths := []struct{ method, path, body string }{
		{http.MethodGet, "/v1/query?ikey=1&direct=1", ""},
		{http.MethodGet, "/v1/stats", ""},
		{http.MethodGet, "/v1/snapshot", ""},
		{http.MethodPost, "/v1/subscribe", `{"queries":[{"kind":"threshold","ikey":"1","value":5}]}`},
		{http.MethodGet, "/v1/watch?sub=nope", ""},
	}
	for _, p := range paths {
		for _, tc := range []struct {
			name, auth string
			wantCode   int
		}{
			{"missing", "", http.StatusUnauthorized},
			{"wrong", "Bearer wrong", http.StatusUnauthorized},
			{"malformed", "s3cret", http.StatusUnauthorized},
			{"good", "Bearer s3cret", 0}, // 0 = anything but 401
		} {
			var body *strings.Reader
			if p.body != "" {
				body = strings.NewReader(p.body)
			} else {
				body = strings.NewReader("")
			}
			req := httptest.NewRequest(p.method, p.path, body)
			if p.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			if tc.auth != "" {
				req.Header.Set("Authorization", tc.auth)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if tc.wantCode == http.StatusUnauthorized {
				if rec.Code != http.StatusUnauthorized {
					t.Errorf("%s %s with %s auth: code %d, want 401", p.method, p.path, tc.name, rec.Code)
				}
			} else if rec.Code == http.StatusUnauthorized {
				t.Errorf("%s %s with good auth: still 401", p.method, p.path)
			}
		}
	}

	open := authedServer(t, "")
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	open.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("open server rejected an unauthenticated request: %d", rec.Code)
	}
}

// TestSubscribeValidationAndWatch404 covers the subscribe error surface and
// the watch stream's unknown-subscription reply.
func TestSubscribeValidationAndWatch404(t *testing.T) {
	srv := authedServer(t, "")
	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/subscribe", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	for _, body := range []string{
		`not json`,
		`{"queries":[]}`,
		`{"queries":[{"kind":"threshold","ikey":"1"}]}`,                     // zero threshold
		`{"kind":"threshold"}`,                                              // unknown top-level field
		`{"queries":[{"kind":"nope","ikey":"1","value":5}]}`,                // unknown kind
		`{"queries":[{"kind":"rate","ikey":"1","factor":0}]}`,               // zero factor
		`{"queries":[{"kind":"threshold","value":5}]}`,                      // missing key
		`{"queries":[{"kind":"threshold","key":"a","ikey":"1","value":5}]}`, // both key forms
	} {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Errorf("subscribe %q: code %d, want 400", body, rec.Code)
		}
	}
	if rec := post(`{"queries":[{"kind":"threshold","ikey":"1","value":5}]}`); rec.Code != http.StatusOK {
		t.Errorf("valid subscribe: code %d body %s", rec.Code, rec.Body)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/watch?sub=doesnotexist", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("watch of unknown subscription: code %d, want 404", rec.Code)
	}
	req = httptest.NewRequest(http.MethodDelete, "/v1/subscribe?sub=doesnotexist", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unsubscribe of unknown subscription: code %d, want 404", rec.Code)
	}
}

// TestWatchStreamDeliversOverHTTP runs the full wire path on a real listener:
// subscribe, attach SSE streams with real clients, fire crossings through
// ingest, and parse the notify frames off every stream. With one subscriber
// it is the plain round trip; with 256 on one subscription it is the fan-out:
// every subscriber must see every notification, in order, and never a
// dropped marker.
func TestWatchStreamDeliversOverHTTP(t *testing.T) {
	for _, subscribers := range []int{1, 256} {
		t.Run(fmt.Sprintf("subscribers=%d", subscribers), func(t *testing.T) {
			watchStreamDelivers(t, subscribers)
		})
	}
}

func watchStreamDelivers(t *testing.T, subscribers int) {
	const rounds = 3
	srv := authedServer(t, "tok")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info, err := srv.Standing().Subscribe([]ecmsketch.StandingQuery{
		{Kind: ecmsketch.StandingThreshold, Key: 42, Value: 50},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each subscriber reports the hello frame, then one notification per
	// round; any other frame (dropped, bye) or a broken stream is an error.
	type frame struct {
		n   standing.Notification
		err error
	}
	hello := make(chan error, subscribers)
	frames := make(chan frame, subscribers*rounds)
	ctx, cancel := context.WithCancel(context.Background())
	send := func(f frame) {
		select {
		case frames <- f:
		case <-ctx.Done():
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch?sub="+info.ID, nil)
			req.Header.Set("Authorization", "Bearer tok")
			resp, err := ts.Client().Do(req)
			if err != nil {
				hello <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				hello <- fmt.Errorf("watch: %s", resp.Status)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			var event string
			helloSeen := false
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "event: "):
					event = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: ") && event == "hello" && !helloSeen:
					helloSeen = true
					hello <- nil
				case strings.HasPrefix(line, "data: ") && event == "notify":
					n, err := standing.ParseNotificationJSON([]byte(strings.TrimPrefix(line, "data: ")))
					send(frame{n, err})
				case strings.HasPrefix(line, "data: "):
					send(frame{err: fmt.Errorf("unexpected %q frame: %s", event, line)})
				}
			}
			if !helloSeen {
				hello <- fmt.Errorf("stream ended before hello: %v", sc.Err())
			}
		}()
	}
	for i := 0; i < subscribers; i++ {
		select {
		case err := <-hello:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d subscribers attached", i, subscribers)
		}
	}

	// Each round the key crosses its threshold (rising edge, fires once),
	// then the window slides past the burst so the next round crosses again.
	tick := ecmsketch.Tick(1)
	for round := 1; round <= rounds; round++ {
		fired := make(chan struct{})
		go func() {
			srv.Engine().AddBatch([]ecmsketch.Event{{Key: 42, Tick: tick, N: 100}})
			close(fired)
		}()
		for i := 0; i < subscribers; i++ {
			select {
			case f := <-frames:
				if f.err != nil {
					t.Fatalf("round %d: %v", round, f.err)
				}
				if f.n.Key != 42 || !f.n.Rising || f.n.Seq != uint64(round) {
					t.Fatalf("round %d: notification %+v, want rising on key 42 seq %d", round, f.n, round)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: %d of %d subscribers notified", round, i, subscribers)
			}
		}
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("ingest blocked on delivery")
		}
		tick += 10000 + 1
		srv.Engine().Advance(tick)
		tick++
	}

	// Stats surface the subscription, every watcher, and no drops.
	statsReq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	statsReq.Header.Set("Authorization", "Bearer tok")
	statsResp, err := ts.Client().Do(statsReq)
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		Standing struct {
			Subscriptions int    `json:"subscriptions"`
			Watchers      int    `json:"watchers"`
			Dropped       uint64 `json:"dropped"`
		} `json:"standing"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Standing.Subscriptions != 1 || stats.Standing.Watchers != subscribers || stats.Standing.Dropped != 0 {
		t.Fatalf("stats standing = %+v, want 1 subscription, %d watchers, 0 dropped", stats.Standing, subscribers)
	}
}

// TestStandingPolicyFromEngine: NewOver takes the registry's advance policy
// from the engine it serves, not from cfg's labels. Arrivals slipped in
// with the change feed detached leave a threshold disarmed over an
// estimate now above it; a pure advance then re-checks it only under the
// strict policy, which an rw engine gets with an empty cfg and an eh
// engine does not.
func TestStandingPolicyFromEngine(t *testing.T) {
	for algo, wantFire := range map[ecmsketch.Algorithm]bool{ecmsketch.AlgoRW: true, ecmsketch.AlgoEH: false} {
		eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
			Params: ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1 << 16, Seed: 5, Algorithm: algo},
			Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewOver(Config{}, eng)
		if err != nil {
			t.Fatal(err)
		}
		reg := srv.Standing()
		info, err := reg.Subscribe([]ecmsketch.StandingQuery{{Kind: ecmsketch.StandingThreshold, Key: 7, Value: 10}})
		if err != nil {
			t.Fatal(err)
		}
		w, _, _, err := reg.Attach(info.ID, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetNotifier(nil)
		eng.AddBatch([]ecmsketch.Event{{Key: 7, Tick: 100, N: 50}})
		eng.SetNotifier(reg)
		eng.Advance(200)
		fired := 0
		for len(w.C) > 0 {
			<-w.C
			fired++
		}
		if (fired > 0) != wantFire {
			t.Errorf("%v engine: %d notifications on a pure advance, want strict re-check %v", algo, fired, wantFire)
		}
		srv.Close()
	}
}

// The standing-query wire surface is mounted on both tiers — a Server over
// a Sharded (site) and over a Coordinator — through the same
// standing.Service. These lifecycle tests are table-driven over both
// surfaces so the subscribe/watch/resume contract cannot drift between
// them: each surface provides its handler, its registry, and a fire hook
// that causes exactly one rising crossing of the watched key per call.

type standingSurface struct {
	name    string
	handler http.Handler
	reg     *ecmsketch.StandingRegistry
	// fire triggers exactly one rising threshold crossing on key 42
	// (threshold 50) per call.
	fire func(t *testing.T)
}

func standingSurfaces(t *testing.T) []*standingSurface {
	t.Helper()
	const window = 10_000

	// Site surface: a real ecmserver; crossings are driven by ingest, and
	// the disarm between fires is a window-sliding advance.
	srv := authedServer(t, "")
	var siteTick uint64
	site := &standingSurface{
		name:    "site",
		handler: srv,
		reg:     srv.Standing(),
		fire: func(t *testing.T) {
			siteTick++
			srv.Engine().AddBatch([]ecmsketch.Event{{Key: 42, Tick: siteTick, N: 100}})
			siteTick += window + 1
			srv.Engine().Advance(siteTick)
		},
	}

	// Coordinator surface: two engines behind local sites, delta pulls on;
	// crossings are driven by mutating a site and forcing a refresh, so the
	// registry evaluates on the delta-apply path.
	engines := make([]*ecmsketch.Sharded, 2)
	sites := make([]ecmsketch.Site, 2)
	for i := range engines {
		eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
			Params: ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: window, Seed: 7},
			Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		sites[i] = ecmsketch.NewLocalSite(fmt.Sprintf("site-%d", i), eng)
	}
	cs, err := NewOver(Config{}, ecmsketch.NewCoordinator(sites...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	if err := cs.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	var coordTick uint64
	coord := &standingSurface{
		name:    "coordinator",
		handler: cs,
		reg:     cs.Standing(),
		fire: func(t *testing.T) {
			// t.Errorf, not Fatal: fire also runs on non-test goroutines.
			coordTick++
			engines[0].AddBatch([]ecmsketch.Event{{Key: 42, Tick: coordTick, N: 100}})
			if err := cs.coord.refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
			coordTick += window + 1
			engines[0].Advance(coordTick)
			engines[1].Advance(coordTick)
			if err := cs.coord.refresh(); err != nil {
				t.Errorf("refresh: %v", err)
			}
		},
	}
	return []*standingSurface{site, coord}
}

// sseClient is one watch stream over a real HTTP connection.
type sseClient struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func openWatch(t *testing.T, base, sub string, resume uint64, withResume bool) (*sseClient, error) {
	t.Helper()
	u := base + "/v1/watch?sub=" + sub
	if withResume {
		u += fmt.Sprintf("&resume=%d", resume)
	}
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("watch: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1024*1024)
	return &sseClient{resp: resp, sc: sc}, nil
}

func (c *sseClient) close() { c.resp.Body.Close() }

// next reads one complete SSE event (skipping keep-alive comments).
// Returns event "" on stream end.
func (c *sseClient) next() (event, data string) {
	for c.sc.Scan() {
		line := c.sc.Text()
		switch {
		case line == "":
			if event != "" {
				return event, data
			}
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return "", ""
}

func (c *sseClient) expectHello(t *testing.T) {
	t.Helper()
	if ev, _ := c.next(); ev != "hello" {
		t.Fatalf("first event %q, want hello", ev)
	}
}

func (c *sseClient) expectNotify(t *testing.T) standing.Notification {
	t.Helper()
	ev, data := c.next()
	if ev != "notify" {
		t.Fatalf("event %q (data %q), want notify", ev, data)
	}
	n, err := standing.ParseNotificationJSON([]byte(data))
	if err != nil {
		t.Fatalf("bad notify payload %q: %v", data, err)
	}
	return n
}

func subscribeKey42(t *testing.T, s *standingSurface) ecmsketch.StandingSubscription {
	t.Helper()
	info, err := s.reg.Subscribe([]ecmsketch.StandingQuery{
		{Kind: ecmsketch.StandingThreshold, Key: 42, Value: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestStandingReconnectResume pins the no-dup/no-miss resume contract on
// both surfaces: receive a few, get kicked, miss a few while disconnected,
// reconnect with resume and receive exactly the missed ones.
func TestStandingReconnectResume(t *testing.T) {
	for _, s := range standingSurfaces(t) {
		t.Run(s.name, func(t *testing.T) {
			ts := httptest.NewServer(s.handler)
			defer ts.Close()
			info := subscribeKey42(t, s)

			c, err := openWatch(t, ts.URL, info.ID, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			c.expectHello(t)
			var last uint64
			for i := 0; i < 3; i++ {
				s.fire(t)
				n := c.expectNotify(t)
				if n.Seq != uint64(i+1) {
					t.Fatalf("live stream seq %d, want %d", n.Seq, i+1)
				}
				last = n.Seq
			}

			// Server sheds the connection; the stream ends without a bye.
			s.reg.Kick(info.ID)
			if ev, _ := c.next(); ev != "" {
				t.Fatalf("kicked stream sent %q, want clean end", ev)
			}
			c.close()

			// Crossings keep firing while nobody is attached.
			for i := 0; i < 2; i++ {
				s.fire(t)
			}

			// Reconnect with resume: the ring replays 4 and 5, no dup of 1-3,
			// no gap marker.
			c2, err := openWatch(t, ts.URL, info.ID, last, true)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.close()
			c2.expectHello(t)
			for want := last + 1; want <= last+2; want++ {
				n := c2.expectNotify(t)
				if n.Seq != want {
					t.Fatalf("resumed stream seq %d, want %d (no dup, no miss)", n.Seq, want)
				}
			}
			// And the stream is live again.
			s.fire(t)
			if n := c2.expectNotify(t); n.Seq != last+3 {
				t.Fatalf("post-resume live seq %d, want %d", n.Seq, last+3)
			}
		})
	}
}

// TestStandingDroppedMarker pins the explicit-gap contract: resuming past
// the replay ring's horizon yields a dropped marker naming the miss count
// before the retained notifications.
func TestStandingDroppedMarker(t *testing.T) {
	for _, s := range standingSurfaces(t) {
		t.Run(s.name, func(t *testing.T) {
			s.reg.SetLimits(4, 0) // 4-slot ring so the horizon is easy to cross
			ts := httptest.NewServer(s.handler)
			defer ts.Close()
			info := subscribeKey42(t, s)

			for i := 0; i < 7; i++ {
				s.fire(t)
			}
			// Resume from 0: seqs 1-3 are out of horizon (ring holds 4-7).
			c, err := openWatch(t, ts.URL, info.ID, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			c.expectHello(t)
			ev, data := c.next()
			if ev != "dropped" {
				t.Fatalf("first post-hello event %q (data %q), want dropped", ev, data)
			}
			if !strings.Contains(data, `"missed":3`) {
				t.Fatalf("dropped marker %q, want missed=3", data)
			}
			for want := uint64(4); want <= 7; want++ {
				if n := c.expectNotify(t); n.Seq != want {
					t.Fatalf("replay seq %d, want %d", n.Seq, want)
				}
			}
		})
	}
}

// TestStandingUnsubscribeSaysBye: removing the subscription ends attached
// streams with a bye frame, and later watches 404.
func TestStandingUnsubscribeSaysBye(t *testing.T) {
	for _, s := range standingSurfaces(t) {
		t.Run(s.name, func(t *testing.T) {
			ts := httptest.NewServer(s.handler)
			defer ts.Close()
			info := subscribeKey42(t, s)
			c, err := openWatch(t, ts.URL, info.ID, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			c.expectHello(t)

			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/subscribe?sub="+info.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("unsubscribe: %s", resp.Status)
			}
			if ev, _ := c.next(); ev != "bye" {
				t.Fatalf("event %q, want bye", ev)
			}
			if _, err := openWatch(t, ts.URL, info.ID, 0, false); err == nil {
				t.Fatal("watch after unsubscribe succeeded, want 404")
			}
		})
	}
}

// TestStandingLifecycleChurn hammers subscribe/watch/unsubscribe over real
// HTTP connections while crossings fire; meaningful under -race.
func TestStandingLifecycleChurn(t *testing.T) {
	for _, s := range standingSurfaces(t) {
		t.Run(s.name, func(t *testing.T) {
			ts := httptest.NewServer(s.handler)
			defer ts.Close()

			stop := make(chan struct{})
			var fires sync.WaitGroup
			fires.Add(1)
			go func() {
				defer fires.Done()
				for {
					select {
					case <-stop:
						return
					default:
						s.fire(t)
					}
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						info, err := s.reg.Subscribe([]ecmsketch.StandingQuery{
							{Kind: ecmsketch.StandingThreshold, Key: 42, Value: 50},
						})
						if err != nil {
							t.Error(err)
							return
						}
						c, err := openWatch(t, ts.URL, info.ID, 0, false)
						if err != nil {
							t.Error(err)
							return
						}
						if ev, _ := c.next(); ev != "hello" {
							t.Errorf("first event %q, want hello", ev)
							c.close()
							return
						}
						if i%2 == 0 {
							s.reg.Kick(info.ID)
						}
						c.close()
						if !s.reg.Unsubscribe(info.ID) {
							t.Error("subscription vanished")
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			fires.Wait()
			if subs, _, _, _ := s.reg.Stats(); subs != 0 {
				t.Fatalf("%d subscriptions leaked", subs)
			}
		})
	}
}
