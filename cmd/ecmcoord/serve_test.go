package main

// End-to-end tests of the PR-8 serve-mode surface: a stacked coordinator
// hierarchy pulling deltas over real HTTP, the dynamic-membership routes,
// and TLS on both hops.

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
)

// newTestCoordServer builds a serve-mode coordinator over the given site
// URLs the way main does, without starting the re-pull loop: refreshes are
// explicit.
func newTestCoordServer(t *testing.T, client *http.Client, siteURLs []string) *coordServer {
	t.Helper()
	cs, err := newCoordServer(newCoordinator(client, siteURLs, ""), 0, ecmserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cs.siteClient = client
	t.Cleanup(cs.Close)
	return cs
}

// viewOf returns the merged view the coordinator currently serves.
func viewOf(t *testing.T, cs *coordServer) *ecmsketch.Sketch {
	t.Helper()
	v, err := cs.co.View()
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
		eng := ts.Config.Handler.(*ecmserver.Server).Engine()
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
	if err := mid.refresh(); err != nil {
		t.Fatal(err)
	}
	midFront := httptest.NewServer(mid)
	defer midFront.Close()

	top := newTestCoordServer(t, http.DefaultClient, []string{midFront.URL})
	if err := top.refresh(); err != nil {
		t.Fatal(err)
	}

	var fullSize, steadyDelta int64
	for round := 1; round < 6; round++ {
		mutateSites(sites, round)
		if err := mid.refresh(); err != nil {
			t.Fatalf("round %d: mid refresh: %v", round, err)
		}
		before := top.co.PulledBytes()
		if err := top.refresh(); err != nil {
			t.Fatalf("round %d: top refresh: %v", round, err)
		}
		pulled := top.co.PulledBytes() - before
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
	if got := top.co.DeltaPulls(); got < 4 {
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
	if err := mid.refresh(); err != nil {
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
	if err := cs.refresh(); err != nil {
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
	if err := cs.refresh(); err != nil {
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
	if err := cs.refresh(); err != nil {
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
	srv, err := ecmserver.New(ecmserver.Config{
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
	if err := cs.refresh(); err != nil {
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
	if err := top.refresh(); err != nil {
		t.Fatalf("stacked TLS pull: %v", err)
	}
	if got := viewOf(t, top).Count(); got != 600 {
		t.Fatalf("stacked TLS count = %d, want 600", got)
	}
}
