package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/standing"
)

// The standing-query wire surface is mounted on two servers — ecmserver
// (site) and ecmcoord (coordinator) — through the same
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
	srv := newTestSite(t, window)
	var siteTick uint64
	site := &standingSurface{
		name:    "ecmserver",
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
	cs, err := newCoordServer(ecmsketch.NewCoordinator(sites...), time.Hour, ecmserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	if err := cs.refresh(); err != nil {
		t.Fatal(err)
	}
	var coordTick uint64
	coord := &standingSurface{
		name:    "ecmcoord",
		handler: cs,
		reg:     cs.srv.Standing(),
		fire: func(t *testing.T) {
			// t.Errorf, not Fatal: fire also runs on non-test goroutines.
			coordTick++
			engines[0].AddBatch([]ecmsketch.Event{{Key: 42, Tick: coordTick, N: 100}})
			if err := cs.refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
			coordTick += window + 1
			engines[0].Advance(coordTick)
			engines[1].Advance(coordTick)
			if err := cs.refresh(); err != nil {
				t.Errorf("refresh: %v", err)
			}
		},
	}
	return []*standingSurface{site, coord}
}

func newTestSite(t *testing.T, window uint64) *ecmserver.Server {
	t.Helper()
	srv, err := ecmserver.New(ecmserver.Config{
		Epsilon: 0.05, Delta: 0.05, WindowLength: window, Algorithm: "eh", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
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
