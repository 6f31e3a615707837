package main

// Restart tests for coordinator durability (persist.go): the merged root
// resumes serving upward deltas from the same epoch, and dynamic site
// registrations survive.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ecmsketch"
)

// newDurableCoordServer is newTestCoordServer plus a store.
func newDurableCoordServer(t *testing.T, siteURLs []string, store ecmsketch.DurableStore) *coordServer {
	t.Helper()
	cs := newTestCoordServer(t, http.DefaultClient, siteURLs)
	cs.enableDurability(store, time.Minute)
	return cs
}

// TestCoordRootSurvivesRestart: a parent holding a cursor from before the
// coordinator restart receives a delta — not a re-baselining full — from
// the restarted coordinator, and the reconstruction matches its served
// snapshot.
func TestCoordRootSurvivesRestart(t *testing.T) {
	sites := newEcmserverSites(t, 2)
	urls := []string{sites[0].URL, sites[1].URL}
	store := ecmsketch.NewMemStore()

	cs1 := newDurableCoordServer(t, urls, store)
	if err := cs1.refresh(); err != nil {
		t.Fatal(err)
	}
	front1 := httptest.NewServer(cs1)

	// The parent's bootstrap pull: full, with a cursor to come back with.
	var st ecmsketch.DeltaState
	pull := func(front *httptest.Server, wantKind string) {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/snapshot?since=" + st.Cursor().String())
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if kind := resp.Header.Get("X-Ecm-Delta"); kind != wantKind {
			t.Fatalf("kind %q, want %q", kind, wantKind)
		}
		cur, err := ecmsketch.ParseCursor(resp.Header.Get("X-Ecm-Cursor"))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(body.Bytes(), cur, wantKind == "full"); err != nil {
			t.Fatalf("apply %s: %v", wantKind, err)
		}
	}
	pull(front1, "full")

	// More site traffic merged into the root, then a shutdown-style persist.
	mutateSites(sites, 1)
	if err := cs1.refresh(); err != nil {
		t.Fatal(err)
	}
	cs1.persistRootNow()
	front1.Close()
	cs1.Close()

	// The restarted coordinator restores the root before any pull round...
	cs2 := newDurableCoordServer(t, urls, store)
	front2 := httptest.NewServer(cs2)
	defer front2.Close()

	// ...so the parent's pre-restart cursor is answered with a delta.
	pull(front2, "delta")
	got, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(front2.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	legacy := new(bytes.Buffer)
	legacy.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got.Marshal(), legacy.Bytes()) {
		t.Fatal("post-restart delta reconstruction differs from the served snapshot")
	}

	// And after the restarted coordinator's own refresh rounds, the cursor
	// keeps yielding deltas (the in-place patch preserved the epoch).
	mutateSites(sites, 2)
	if err := cs2.refresh(); err != nil {
		t.Fatal(err)
	}
	pull(front2, "delta")
}

// TestCoordSitesSurviveRestart: a site registered at runtime via POST
// /v1/sites is still a member after a restart over the same store.
func TestCoordSitesSurviveRestart(t *testing.T) {
	sites := newEcmserverSites(t, 2)
	store := ecmsketch.NewMemStore()

	// Start with one static site; register the second dynamically.
	cs1 := newDurableCoordServer(t, []string{sites[0].URL}, store)
	front1 := httptest.NewServer(cs1)
	resp, err := http.Post(front1.URL+"/v1/sites", "application/json",
		strings.NewReader(`{"url": "`+sites[1].URL+`", "name": "dyn-site"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("site registration status %d", resp.StatusCode)
	}
	front1.Close()
	cs1.Close()

	// The restart sees only the static flag site, then restores the rest.
	cs2 := newDurableCoordServer(t, []string{sites[0].URL}, store)
	names := map[string]bool{}
	for _, s := range cs2.co.Sites() {
		names[s.Name()] = true
	}
	if !names["dyn-site"] {
		t.Fatalf("dynamic site lost across restart; members: %v", names)
	}
	if len(names) != 2 {
		t.Fatalf("membership %v, want the static site plus dyn-site", names)
	}

	// A removal persists too: drop the dynamic site, restart, still gone.
	if !cs2.co.RemoveSite("dyn-site") {
		t.Fatal("remove failed")
	}
	cs2.persistSites()
	cs3 := newDurableCoordServer(t, []string{sites[0].URL}, store)
	for _, s := range cs3.co.Sites() {
		if s.Name() == "dyn-site" {
			t.Fatal("removed site resurrected across restart")
		}
	}
}

// TestRestoreSitesSkipsRejectedEntries: a sites blob holding entries POST
// /v1/sites would refuse — no url, a url ParseRequestURI rejects — restores
// only the valid members; an unnamed entry is named by its url.
func TestRestoreSitesSkipsRejectedEntries(t *testing.T) {
	store := ecmsketch.NewMemStore()
	blob := `[{"name":"good","url":"http://127.0.0.1:1"},{"name":"empty","url":""},` +
		`{"name":"relative","url":"not a url"},{"url":"http://127.0.0.1:2"}]`
	if err := store.Save(coordSitesBlob, []byte(blob)); err != nil {
		t.Fatal(err)
	}
	cs := newDurableCoordServer(t, nil, store)
	names := map[string]bool{}
	for _, s := range cs.co.Sites() {
		names[s.Name()] = true
	}
	if len(names) != 2 || !names["good"] || !names["http://127.0.0.1:2"] {
		t.Fatalf("restored members %v, want good and http://127.0.0.1:2 only", names)
	}
}

// FuzzSitesBlob: decoding a sites blob never panics, every entry it keeps
// passes the POST /v1/sites check, and what it keeps round-trips through the
// encoding persistSites writes — decoded again, it is kept whole.
func FuzzSitesBlob(f *testing.F) {
	for _, seed := range []string{
		`[]`, `null`, `[null]`, `{}`, `[{"name":"a","url":"http://h:1"}]`,
		`[{"url":"http://h:1"},{"url":""},{"url":"x"},{"name":"b","url":"https://[::1]:8/p?q"}]`,
		`[{"NAME":"c","Url":"http://h:2","extra":1}]`, `[{"name":"\ud800","url":"/rel"}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		kept, _, err := decodeSites(blob)
		if err != nil {
			return
		}
		for _, ps := range kept {
			if checkSiteURL(ps.URL) != nil || ps.Name == "" {
				t.Fatalf("kept %+v, which POST /v1/sites would refuse", ps)
			}
		}
		again, err := json.Marshal(kept)
		if err != nil {
			t.Fatal(err)
		}
		back, rejected, err := decodeSites(again)
		if err != nil || len(rejected) != 0 || !reflect.DeepEqual(back, kept) {
			t.Fatalf("round trip of %s: kept %+v, rejected %v, err %v; want %+v", again, back, rejected, err, kept)
		}
	})
}
