package ecmserver

// Restart tests for coordinator durability (coordinator.go): the merged
// root resumes serving upward deltas from the same epoch, and dynamic site
// registrations survive.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecmsketch"
)

// newDurableCoordServer is newTestCoordServer plus a store.
func newDurableCoordServer(t *testing.T, siteURLs []string, store ecmsketch.DurableStore) *Server {
	t.Helper()
	return coordServerOver(t, Config{PullClient: http.DefaultClient, DurableStore: store, SnapshotInterval: time.Minute}, siteURLs)
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
	if err := cs1.coord.refresh(); err != nil {
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
	if err := cs1.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	front1.Close()
	if err := cs1.Close(); err != nil {
		t.Fatal(err)
	}

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
	if err := cs2.coord.refresh(); err != nil {
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
	for _, s := range cs2.coord.co.Sites() {
		names[s.Name()] = true
	}
	if !names["dyn-site"] {
		t.Fatalf("dynamic site lost across restart; members: %v", names)
	}
	if len(names) != 2 {
		t.Fatalf("membership %v, want the static site plus dyn-site", names)
	}

	// A removal persists too: drop the dynamic site, restart, still gone.
	if !cs2.coord.co.RemoveSite("dyn-site") {
		t.Fatal("remove failed")
	}
	cs2.coord.persistSites()
	cs3 := newDurableCoordServer(t, []string{sites[0].URL}, store)
	for _, s := range cs3.coord.co.Sites() {
		if s.Name() == "dyn-site" {
			t.Fatal("removed site resurrected across restart")
		}
	}
}

// TestCoordStatsDoesNotWaitForPullRound: GET /v1/stats on a durable
// coordinator answers while a pull round is stuck on a slow site — readers
// wait out a patch, never a network round.
func TestCoordStatsDoesNotWaitForPullRound(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		http.Error(w, "slow", http.StatusServiceUnavailable)
	}))
	defer slow.Close()
	cs := newDurableCoordServer(t, []string{slow.URL}, ecmsketch.NewMemStore())
	front := httptest.NewServer(cs)
	defer front.Close()
	// Deferred after both servers so it runs before they close: a stuck
	// handler would hold either Close forever.
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	done := make(chan error, 1)
	go func() { done <- cs.coord.refresh() }()
	<-entered

	resp, err := (&http.Client{Timeout: time.Second}).Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats during a blocked pull round: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats during a blocked pull round: %s", resp.Status)
	}
	unblock()
	if err := <-done; err == nil {
		t.Fatal("refresh against a failing site succeeded")
	}
}

// slowSitesStore holds the first save of the sites blob until secondDone
// closes, or a second has passed: long enough for a second registration to
// read and save its membership first, if nothing orders the two.
type slowSitesStore struct {
	ecmsketch.DurableStore
	saves      atomic.Int32
	entered    chan struct{}
	secondDone chan struct{}
}

func (s *slowSitesStore) Save(name string, data []byte) error {
	if name == coordSitesBlob && s.saves.Add(1) == 1 {
		close(s.entered)
		select {
		case <-s.secondDone:
		case <-time.After(time.Second):
		}
	}
	return s.DurableStore.Save(name, data)
}

// TestCoordConcurrentRegistrationsPersistBoth: two registrations racing
// each other's membership saves both survive a restart — the older
// membership never lands after the newer one.
func TestCoordConcurrentRegistrationsPersistBoth(t *testing.T) {
	store := &slowSitesStore{DurableStore: ecmsketch.NewMemStore(), entered: make(chan struct{}), secondDone: make(chan struct{})}
	cs := newDurableCoordServer(t, nil, store)
	front := httptest.NewServer(cs)
	defer front.Close()
	register := func(name string) error {
		resp, err := http.Post(front.URL+"/v1/sites", "application/json",
			strings.NewReader(`{"url":"http://127.0.0.1:1","name":"`+name+`"}`))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("registering %s: %s", name, resp.Status)
		}
		return nil
	}
	first := make(chan error, 1)
	go func() { first <- register("site-a") }()
	<-store.entered
	if err := register("site-b"); err != nil {
		t.Fatal(err)
	}
	close(store.secondDone)
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	restarted := newDurableCoordServer(t, nil, store)
	names := map[string]bool{}
	for _, s := range restarted.coord.co.Sites() {
		names[s.Name()] = true
	}
	if len(names) != 2 || !names["site-a"] || !names["site-b"] {
		t.Fatalf("restored membership %v, want site-a and site-b", names)
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
	for _, s := range cs.coord.co.Sites() {
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
