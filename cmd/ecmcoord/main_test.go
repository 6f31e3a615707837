package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmserver"
)

// fakeSite serves a marshaled site sketch the way ecmserve does.
func fakeSite(t *testing.T, seed uint64, feed func(*ecmsketch.Sketch)) *httptest.Server {
	t.Helper()
	sk, err := ecmsketch.New(ecmsketch.Params{
		Epsilon: 0.1, Delta: 0.1, WindowLength: 10000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(sk)
	enc := sk.Marshal()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Write(enc)
	}))
}

// pullAndMerge is one round of the binary's only mode over siteURLs: build
// the coordinator ecmcoord builds, refresh it once, and hand back the merged
// view with the payload bytes pulled.
func pullAndMerge(t *testing.T, client *http.Client, siteURLs []string) (*ecmsketch.Sketch, int, error) {
	t.Helper()
	cs := newTestCoordServer(t, client, siteURLs)
	if err := cs.refresh(); err != nil {
		return nil, 0, err
	}
	return viewOf(t, cs), int(cs.co.PulledBytes()), nil
}

func TestPullAndMerge(t *testing.T) {
	a := fakeSite(t, 9, func(s *ecmsketch.Sketch) {
		for i := ecmsketch.Tick(1); i <= 100; i++ {
			s.AddString("x", i)
		}
	})
	defer a.Close()
	b := fakeSite(t, 9, func(s *ecmsketch.Sketch) {
		for i := ecmsketch.Tick(1); i <= 50; i++ {
			s.AddString("x", i)
			s.AddString("y", i)
		}
	})
	defer b.Close()

	merged, transferred, err := pullAndMerge(t, http.DefaultClient, []string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}
	if transferred <= 0 {
		t.Error("no transfer accounted")
	}
	if got := merged.EstimateString("x", 10000); got < 130 || got > 180 {
		t.Errorf("merged x = %v, want ≈150", got)
	}
	if got := merged.EstimateString("y", 10000); got < 40 || got > 80 {
		t.Errorf("merged y = %v, want ≈50", got)
	}
	if merged.Count() != 200 {
		t.Errorf("merged count = %d, want 200", merged.Count())
	}
}

func TestPullAndMergeIncompatibleSeeds(t *testing.T) {
	a := fakeSite(t, 1, func(s *ecmsketch.Sketch) { s.Add(1, 1) })
	defer a.Close()
	b := fakeSite(t, 2, func(s *ecmsketch.Sketch) { s.Add(1, 1) })
	defer b.Close()
	if _, _, err := pullAndMerge(t, http.DefaultClient, []string{a.URL, b.URL}); err == nil {
		t.Fatal("merging sketches with different seeds succeeded")
	}
}

func TestPullAndMergeHTTPErrors(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	if _, _, err := pullAndMerge(t, http.DefaultClient, []string{bad.URL}); err == nil {
		t.Fatal("HTTP 500 not surfaced")
	}
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not a sketch"))
	}))
	defer garbage.Close()
	if _, _, err := pullAndMerge(t, http.DefaultClient, []string{garbage.URL}); err == nil {
		t.Fatal("garbage payload not surfaced")
	}
	if _, _, err := pullAndMerge(t, http.DefaultClient, []string{"http://127.0.0.1:1"}); err == nil {
		t.Fatal("connection failure not surfaced")
	}
}

// newEcmserverSites starts n real ecmserver sites with identical
// configuration, each fed a distinct deterministic stream and advanced to a
// shared clock, and returns the servers.
func newEcmserverSites(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		srv, err := ecmserver.New(ecmserver.Config{
			Epsilon: 0.1, Delta: 0.1, WindowLength: 10000, Seed: 21, Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		var batch []ecmsketch.Event
		for e := 0; e < 3000; e++ {
			batch = append(batch, ecmsketch.Event{Key: uint64(e%61) + uint64(i)*500, Tick: uint64(e/3 + 1)})
		}
		srv.Engine().AddBatch(batch)
		srv.Engine().Advance(2000)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		out[i] = ts
	}
	return out
}

// TestEcmcoordMergesBitIdenticallyToInProcess is the CI smoke for the
// shared coordinator core: ecmcoord's networked refresh of two ecmserver
// sites must produce byte-for-byte the summary an in-process coordinator
// refreshing over the same engines computes.
func TestEcmcoordMergesBitIdenticallyToInProcess(t *testing.T) {
	sites := newEcmserverSites(t, 2)
	merged, transferred, err := pullAndMerge(t, http.DefaultClient, []string{sites[0].URL, sites[1].URL})
	if err != nil {
		t.Fatal(err)
	}
	if transferred <= 0 {
		t.Error("no transfer accounted")
	}
	local := make([]ecmsketch.Site, len(sites))
	for i, ts := range sites {
		local[i] = ecmsketch.NewLocalSite(fmt.Sprintf("site-%d", i),
			ts.Config.Handler.(*ecmserver.Server).Engine())
	}
	co := ecmsketch.NewCoordinator(local...)
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	inproc, err := co.View()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Marshal(), inproc.Marshal()) {
		t.Fatal("networked ecmcoord merge differs from in-process merge over the same engines")
	}
	if merged.Count() == 0 {
		t.Error("merged summary is empty; equivalence is vacuous")
	}
}

// TestCoordServer drives the coordinator end to end: refresh, point and
// batch queries, stats provenance, snapshot re-pull (a coordinator is
// itself a site), and the 503 surface before any successful pull.
func TestCoordServer(t *testing.T) {
	sites := newEcmserverSites(t, 2)
	cs := newTestCoordServer(t, http.DefaultClient, []string{sites[0].URL, sites[1].URL})
	if err := cs.refresh(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cs)
	defer front.Close()

	getJSON := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Key 0 appears in site 0's stream ~50 times per full window.
	est := getJSON("/v1/query?ikey=0&range=10000&direct=1")["estimates"].([]any)[0].(float64)
	if est < 25 || est > 200 {
		t.Errorf("estimate = %v, want ≈50", est)
	}
	if tot := getJSON("/v1/query?total=1&range=10000")["total"].(float64); tot < 5000 || tot > 7000 {
		t.Errorf("total = %v, want ≈6000", tot)
	}
	if sj := getJSON("/v1/query?selfJoin=1&range=10000")["selfJoin"].(float64); sj <= 0 {
		t.Errorf("selfJoin = %v, want > 0", sj)
	}

	stats := getJSON("/v1/stats")
	if stats["role"] != "coordinator" || stats["sites"].(float64) != 2 {
		t.Errorf("stats = %v", stats)
	}
	if stats["count"].(float64) != 6000 {
		t.Errorf("stats count = %v, want 6000", stats["count"])
	}
	strStats := getJSON("/v1/stats?strings=1")
	if _, ok := strStats["count"].(string); !ok {
		t.Errorf("stats?strings=1 count = %T, want string", strStats["count"])
	}

	// Batched query from one consistent cut.
	resp, err := http.Post(front.URL+"/v1/query", "application/json",
		strings.NewReader(`{"keys":[{"ikey":"0"},{"ikey":"500"}],"range":10000,"total":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr struct {
		Estimates []float64 `json:"estimates"`
		Total     float64   `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Estimates) != 2 || qr.Estimates[0] <= 0 || qr.Estimates[1] <= 0 {
		t.Errorf("query estimates = %v", qr.Estimates)
	}
	if qr.Total < 5000 || qr.Total > 7000 {
		t.Errorf("query total = %v", qr.Total)
	}

	// The coordinator shares ecmserver's strict parser: unknown fields are
	// rejected identically on both tiers.
	bad, err := http.Post(front.URL+"/v1/query", "application/json",
		strings.NewReader(`{"keys":[{"ikey":"0"}],"rnage":10}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown query field accepted: %s", bad.Status)
	}

	// A coordinator is itself pullable: what /v1/snapshot ships is its
	// merged view, byte for byte (TestStackedCoordServersShipDeltas pulls
	// one coordinator from another).
	snap, err := http.Get(front.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	repulled, err := io.ReadAll(snap.Body)
	snap.Body.Close()
	if err != nil || snap.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: %s, %v", snap.Status, err)
	}
	if !bytes.Equal(repulled, viewOf(t, cs).Marshal()) {
		t.Error("re-pulled coordinator snapshot differs from its merged view")
	}

	// Refresh on demand keeps working after site ingest.
	sites[0].Config.Handler.(*ecmserver.Server).Engine().Add(12345, 2001)
	rr, err := http.Post(front.URL+"/v1/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if got := viewOf(t, cs).Count(); got != 6001 {
		t.Errorf("post-refresh count = %d, want 6001", got)
	}
}

// TestCoordServerNotReady pins the 503 surface of a coordinator that has
// never pulled successfully.
func TestCoordServerNotReady(t *testing.T) {
	cs := newTestCoordServer(t, http.DefaultClient, []string{"http://127.0.0.1:1"})
	front := httptest.NewServer(cs)
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/query?total=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %s, want 503", resp.Status)
	}
	rr, err := http.Post(front.URL+"/v1/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusBadGateway {
		t.Errorf("refresh against dead sites = %s, want 502", rr.Status)
	}
}

func TestSplitSites(t *testing.T) {
	got := splitSites(" http://a:1/, ,http://b:2 ")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Errorf("splitSites = %v", got)
	}
	if len(splitSites("")) != 0 {
		t.Error("empty input produced sites")
	}
}
