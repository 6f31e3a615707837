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
