package ecmserver

// End-to-end tests of the coordinator tier: pulls from real and fake sites
// over HTTP, a stacked coordinator hierarchy pulling deltas, the
// membership and refresh routes, and TLS on both hops.

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
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

// pullAndMerge is one round of a coordinator server over siteURLs: build
// the coordinator ecmserve -sites builds, refresh it once, and hand back
// the merged view with the payload bytes pulled.
func pullAndMerge(t *testing.T, client *http.Client, siteURLs []string) (*ecmsketch.Sketch, int, error) {
	t.Helper()
	cs := newTestCoordServer(t, client, siteURLs)
	if err := cs.coord.refresh(); err != nil {
		return nil, 0, err
	}
	return viewOf(t, cs), int(cs.coord.co.PulledBytes()), nil
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
		srv, err := New(Config{
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

// TestCoordinatorMergesBitIdenticallyToInProcess is the CI smoke for the
// shared coordinator core: a coordinator server's networked refresh of two
// ecmserver sites must produce byte-for-byte the summary an in-process
// coordinator refreshing over the same engines computes.
func TestCoordinatorMergesBitIdenticallyToInProcess(t *testing.T) {
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
			ts.Config.Handler.(*Server).Engine())
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
		t.Fatal("networked coordinator merge differs from in-process merge over the same engines")
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
	if err := cs.coord.refresh(); err != nil {
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
	sites[0].Config.Handler.(*Server).Engine().Add(12345, 2001)
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

// TestCoordServerDirectQuery pins ?direct=1 and the GET form of /v1/query
// on a coordinator over real sites: point answers come from the same
// published view as the batched path (a coordinator has no stripes — direct
// is the client-uniform spelling), aggregates are rejected with 400 under
// direct=1, and the stats carry the per-round merge_ns and worker count.
func TestCoordServerDirectQuery(t *testing.T) {
	sites := newEcmserverSites(t, 2)
	cs := newTestCoordServer(t, http.DefaultClient, []string{sites[0].URL, sites[1].URL})
	if err := cs.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cs)
	defer front.Close()

	get := func(path string, wantCode int) map[string]any {
		t.Helper()
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: %s, want %d", path, resp.Status, wantCode)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}

	// POST with and without direct=1 answer identically from the frozen view.
	post := func(path, body string, wantCode int) map[string]any {
		t.Helper()
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s: %s, want %d", path, resp.Status, wantCode)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	body := `{"keys":[{"ikey":"0"},{"ikey":"500"}],"range":10000}`
	batched := post("/v1/query", body, 200)["estimates"].([]any)
	direct := post("/v1/query?direct=1", body, 200)["estimates"].([]any)
	for i := range batched {
		if batched[i] != direct[i] {
			t.Fatalf("estimate %d: direct %v != batched %v", i, direct[i], batched[i])
		}
	}
	post("/v1/query?direct=1", `{"keys":[{"ikey":"0"}],"total":true}`, 400)

	// GET form: same answers, same direct contract.
	viaGet := get("/v1/query?ikey=0&ikey=500&range=10000", 200)["estimates"].([]any)
	for i := range batched {
		if batched[i] != viaGet[i] {
			t.Fatalf("estimate %d: GET %v != POST %v", i, viaGet[i], batched[i])
		}
	}
	get("/v1/query?ikey=0&total=1&direct=1", 400)

	// Stats surface the root patch's timing and parallelism.
	stats := get("/v1/stats", 200)
	lr, ok := stats["lastRefresh"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing lastRefresh: %v", stats)
	}
	if _, ok := lr["merge_ns"].(float64); !ok {
		t.Fatalf("lastRefresh merge_ns = %T, want number", lr["merge_ns"])
	}
	if w, ok := lr["workers"].(float64); !ok || w < 1 {
		t.Fatalf("lastRefresh workers = %v, want >= 1", lr["workers"])
	}
	lrS := get("/v1/stats?strings=1", 200)["lastRefresh"].(map[string]any)
	if _, ok := lrS["merge_ns"].(string); !ok {
		t.Fatalf("lastRefresh merge_ns with ?strings=1 = %T, want string", lrS["merge_ns"])
	}
}

// TestCoordServerProfilingMount pins the opt-in pprof surface of a
// coordinator over a real site, served over HTTP: absent by default,
// mounted by EnableProfiling, and behind the bearer check when a token is
// configured, like the coordinator's own routes.
func TestCoordServerProfilingMount(t *testing.T) {
	sites := newEcmserverSites(t, 1)
	cs := newTestCoordServer(t, http.DefaultClient, []string{sites[0].URL})
	front := httptest.NewServer(cs)
	defer front.Close()
	resp, err := http.Get(front.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("pprof reachable without EnableProfiling: %s", resp.Status)
	}

	cs2 := coordServerOver(t, Config{PullClient: http.DefaultClient, AuthToken: "tok", EnableProfiling: true},
		[]string{sites[0].URL})
	authed := httptest.NewServer(cs2)
	defer authed.Close()
	resp, err = http.Get(authed.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("pprof reachable without token: %s", resp.Status)
	}
	req, _ := http.NewRequest("GET", authed.URL+"/debug/pprof/cmdline", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof with token: %s", resp.Status)
	}
	// The coordinator's own routes sit behind the same check.
	resp, err = http.Get(authed.URL + "/v1/sites")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("/v1/sites reachable without token: %s", resp.Status)
	}
}

// newTestCoordServer builds a coordinator server over the given site URLs
// the way ecmserve -sites does, without the re-pull loop: refreshes are
// explicit.
func newTestCoordServer(t *testing.T, client *http.Client, siteURLs []string) *Server {
	t.Helper()
	return coordServerOver(t, Config{PullClient: client}, siteURLs)
}

// coordServerOver is newTestCoordServer with the whole configuration given.
func coordServerOver(t *testing.T, cfg Config, siteURLs []string) *Server {
	t.Helper()
	sites := make([]ecmsketch.Site, len(siteURLs))
	for i, u := range siteURLs {
		sites[i] = ecmsketch.NewHTTPSiteWithAuth(u, cfg.PullClient, cfg.SiteToken)
	}
	cs, err := NewOver(cfg, ecmsketch.NewCoordinator(sites...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	return cs
}

// viewOf returns the merged view the coordinator currently serves.
func viewOf(t *testing.T, cs *Server) *ecmsketch.Sketch {
	t.Helper()
	v, err := cs.coord.co.View()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// mutateSites trickles a few arrivals into every site engine and advances
// the shared clock — the slow-moving regime deltas exist for.
func mutateSites(sites []*httptest.Server, round int) {
	tick := uint64(2000 + round*100)
	for i, ts := range sites {
		eng := ts.Config.Handler.(*Server).Engine()
		for k := 0; k < 3; k++ {
			eng.Add(uint64(round*17+k+i*500), tick)
		}
		eng.Advance(tick + 50)
	}
}

// TestStackedCoordServersShipDeltas is the tentpole over real HTTP: leaf
// ecmserver sites → a mid coordinator → a top coordinator
// pulling the mid one. After bootstrap, the top coordinator's pulls from the
// mid tier are cursor-based deltas a fraction of the full view's size, and
// every level's view stays byte-identical to the level below's.
func TestStackedCoordServersShipDeltas(t *testing.T) {
	sites := newEcmserverSites(t, 3)
	mid := newTestCoordServer(t, http.DefaultClient,
		[]string{sites[0].URL, sites[1].URL, sites[2].URL})
	if err := mid.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	midFront := httptest.NewServer(mid)
	defer midFront.Close()

	top := newTestCoordServer(t, http.DefaultClient, []string{midFront.URL})
	if err := top.coord.refresh(); err != nil {
		t.Fatal(err)
	}

	var fullSize, steadyDelta int64
	for round := 1; round < 6; round++ {
		mutateSites(sites, round)
		if err := mid.coord.refresh(); err != nil {
			t.Fatalf("round %d: mid refresh: %v", round, err)
		}
		before := top.coord.co.PulledBytes()
		if err := top.coord.refresh(); err != nil {
			t.Fatalf("round %d: top refresh: %v", round, err)
		}
		pulled := top.coord.co.PulledBytes() - before
		if round >= 2 {
			steadyDelta += pulled
		}
		// Top view == the mid coordinator's served snapshot, re-merged: pull
		// the mid snapshot and flat-merge it the way the top tier does.
		resp, err := http.Get(midFront.URL + "/v1/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		payload := new(bytes.Buffer)
		payload.ReadFrom(resp.Body)
		resp.Body.Close()
		midView, err := ecmsketch.Unmarshal(payload.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := viewOf(t, top).Count(), midView.Count(); got != want {
			t.Fatalf("round %d: top count %d != mid count %d", round, got, want)
		}
	}
	fullSize = int64(len(viewOf(t, mid).Marshal()))
	if got := top.coord.co.DeltaPulls(); got < 4 {
		t.Fatalf("top coordinator made %d delta pulls, want ≥4", got)
	}
	if avg := steadyDelta / 4; avg*5 > fullSize {
		t.Fatalf("steady-state top-tier pull %d bytes/round, not ≥5× below full %d", avg, fullSize)
	}

	// The mid coordinator's ?since= route speaks the wire protocol: a
	// bootstrap pull is full and carries a cursor; presenting it back yields
	// a delta reply.
	resp, err := http.Get(midFront.URL + "/v1/snapshot?since=")
	if err != nil {
		t.Fatal(err)
	}
	cur := resp.Header.Get("X-Ecm-Cursor")
	kind := resp.Header.Get("X-Ecm-Delta")
	resp.Body.Close()
	if cur == "" || kind != "full" {
		t.Fatalf("bootstrap ?since=: cursor %q kind %q, want cursor + full", cur, kind)
	}
	mutateSites(sites, 9)
	if err := mid.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(midFront.URL + "/v1/snapshot?since=" + cur)
	if err != nil {
		t.Fatal(err)
	}
	kind = resp.Header.Get("X-Ecm-Delta")
	resp.Body.Close()
	if kind != "delta" {
		t.Fatalf("?since=<cursor> answered %q, want delta", kind)
	}
}

// TestCoordServerSitesRoutes drives the membership surface over HTTP: list,
// register, re-register, remove, and the error shapes — via raw requests and
// the typed ecmclient helpers.
func TestCoordServerSitesRoutes(t *testing.T) {
	sites := newEcmserverSites(t, 3)
	cs := newTestCoordServer(t, http.DefaultClient, []string{sites[0].URL})
	if err := cs.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cs)
	defer front.Close()
	cl := ecmclient.New(front.URL)

	infos, err := cl.Sites()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != sites[0].URL || !infos[0].Healthy {
		t.Fatalf("initial membership = %+v", infos)
	}

	// Register two more sites, one under an explicit name.
	if err := cl.RegisterSite(sites[1].URL, ""); err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterSite(sites[2].URL, "named-site"); err != nil {
		t.Fatal(err)
	}
	if err := cs.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	if got := viewOf(t, cs).Count(); got != 9000 {
		t.Fatalf("count after registration = %d, want 9000 (3 sites × 3000)", got)
	}
	infos, _ = cl.Sites()
	if len(infos) != 3 || infos[2].Name != "named-site" {
		t.Fatalf("membership after adds = %+v", infos)
	}

	// Remove one; the view sheds its contribution on the next refresh.
	if err := cl.UnregisterSite(sites[1].URL); err != nil {
		t.Fatal(err)
	}
	if err := cs.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	if got := viewOf(t, cs).Count(); got != 6000 {
		t.Fatalf("count after removal = %d, want 6000", got)
	}

	// Error shapes: bad JSON, missing url, unknown fields, absent name.
	for _, body := range []string{`{`, `{}`, `{"url":"http://x","bogus":1}`, `{"url":"not a url"}`} {
		resp, err := http.Post(front.URL+"/v1/sites", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/sites %q: %s, want 400", body, resp.Status)
		}
	}
	if err := cl.UnregisterSite("never-registered"); err == nil {
		t.Fatal("removing an unknown site should fail")
	}
	req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/sites", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("DELETE without ?name=: %s, want 400", resp.Status)
	}

	// Stats carry the last round's provenance.
	sr, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	json.NewDecoder(sr.Body).Decode(&stats)
	sr.Body.Close()
	if stats["role"] != "coordinator" {
		t.Fatalf("stats role = %v, want coordinator", stats["role"])
	}
	if _, ok := stats["lastRefresh"].(map[string]any); !ok {
		t.Fatalf("stats lastRefresh missing: %v", stats)
	}
}

// TestTLSRoundTrip pins the TLS surface end to end with a private CA: an
// ecmserver site behind TLS, pulled by a coordinator whose shared pull
// client trusts the test CA (the -site-ca path), itself queried by an
// ecmclient configured via WithRootCAs — and failing closed without the CA.
func TestTLSRoundTrip(t *testing.T) {
	srv, err := New(Config{
		Epsilon: 0.1, Delta: 0.1, WindowLength: 10000, Seed: 21, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 600; e++ {
		srv.Engine().Add(uint64(e%31), uint64(e/2+1))
	}
	srv.Engine().Advance(500)
	site := httptest.NewTLSServer(srv)
	defer site.Close()

	roots := x509.NewCertPool()
	roots.AddCert(site.Certificate())

	// Without the CA the pull fails closed.
	if _, _, err := pullAndMerge(t, ecmsketch.NewPullClient(5*time.Second, nil), []string{site.URL}); err == nil {
		t.Fatal("pull of TLS site without its CA succeeded")
	}

	client := ecmsketch.NewPullClient(5*time.Second, roots)
	cs := newTestCoordServer(t, client, []string{site.URL})
	if err := cs.coord.refresh(); err != nil {
		t.Fatalf("TLS pull: %v", err)
	}
	if got := viewOf(t, cs).Count(); got != 600 {
		t.Fatalf("count over TLS = %d, want 600", got)
	}

	// Serve the coordinator itself over TLS and query it with the typed
	// client trusting the same test CA.
	front := httptest.NewTLSServer(cs)
	defer front.Close()
	frontRoots := x509.NewCertPool()
	frontRoots.AddCert(front.Certificate())
	cl := ecmclient.New(front.URL, ecmclient.WithRootCAs(frontRoots))
	st, err := cl.FetchStats()
	if err != nil {
		t.Fatalf("ecmclient over TLS: %v", err)
	}
	if st.Count != 600 {
		t.Fatalf("client stats count = %d, want 600", st.Count)
	}
	if _, err := ecmclient.New(front.URL).FetchStats(); err == nil {
		t.Fatal("client without the CA should fail closed")
	}

	// And a second-tier coordinator pulls the TLS-served coordinator too —
	// TLS on both hops of the hierarchy.
	top := newTestCoordServer(t, ecmsketch.NewPullClient(5*time.Second, frontRoots), []string{front.URL})
	if err := top.coord.refresh(); err != nil {
		t.Fatalf("stacked TLS pull: %v", err)
	}
	if got := viewOf(t, top).Count(); got != 600 {
		t.Fatalf("stacked TLS count = %d, want 600", got)
	}
}
