package coord_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
	"ecmsketch/internal/difftest"
)

// deltaTestEngines builds n 4-stripe engines with strict view freshness,
// each fed its own log and advanced to tick 1000.
func deltaTestEngines(t *testing.T, n int) []*ecmsketch.Sharded {
	t.Helper()
	engines := make([]*ecmsketch.Sharded, n)
	for i := range engines {
		eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
			Params: ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 50000, Seed: 99},
			Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		difftest.Feed(eng, difftest.Gen(int64(i), difftest.Shape{Window: 50000, Events: 2000, Ticks: 500, Keys: 83, Batch: 2000}))
		eng.Advance(1000)
		engines[i] = eng
	}
	return engines
}

// mutateSlow moves a few keys on every engine and then its clock — the
// slow-moving-stream regime deltas exist for.
func mutateSlow(engines []*ecmsketch.Sharded, round int) {
	for i, eng := range engines {
		difftest.Feed(eng, difftest.Gen(int64(round*len(engines)+i), difftest.Shape{Window: 50000, Events: 4, Ticks: 1, Keys: 400, Batch: 4}))
		eng.Advance(uint64(1000 + round*100 + 50))
	}
}

// serveEngineOver builds an ecmserver-compatible snapshot surface directly
// over an existing engine, so HTTP sites observe exactly the engine the
// in-process sites wrap. Only the routes the coordinator transport speaks
// are needed.
func serveEngineOver(eng *ecmsketch.Sharded) http.Handler {
	srv, err := ecmserver.NewOver(ecmserver.Config{Epsilon: 0.1, Delta: 0.1, WindowLength: 50000, Seed: 99, Shards: 4}, eng)
	if err != nil {
		panic(err)
	}
	return srv
}

// restartableSrc is an in-process delta source whose engine can be
// swapped, simulating a site restart (fresh epoch, same or different
// configuration).
type restartableSrc struct {
	mu  sync.Mutex
	eng *ecmsketch.Sharded
}

func (s *restartableSrc) get() *ecmsketch.Sharded {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}
func (s *restartableSrc) swap(e *ecmsketch.Sharded) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng = e
}
func (s *restartableSrc) DeltaSnapshot(c core.Cursor) ([]byte, core.Cursor, bool, error) {
	return s.get().DeltaSnapshot(c)
}

// tearingSrc truncates one delta payload, simulating a torn transfer that
// passes transport framing but fails protocol validation.
type tearingSrc struct {
	eng  *ecmsketch.Sharded
	arm  bool
	tore bool
}

func (s *tearingSrc) DeltaSnapshot(c core.Cursor) ([]byte, core.Cursor, bool, error) {
	payload, cur, full, err := s.eng.DeltaSnapshot(c)
	if err == nil && !full && s.arm && !s.tore {
		s.tore = true
		payload = payload[:len(payload)-4]
	}
	return payload, cur, full, err
}

// tearingMiddleware is the HTTP analog: it truncates one delta reply's
// payload while keeping the HTTP framing valid.
func tearingMiddleware(inner http.Handler, arm *bool) http.Handler {
	tore := false
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if *arm && !tore && strings.Contains(r.URL.RawQuery, "since=") &&
			rec.Header().Get("X-Ecm-Delta") == "delta" {
			tore = true
			body = body[:len(body)-4]
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestDeltaFailureModes: stale cursors, site restarts, torn delta bodies
// and parameter mismatches over both transports — asserting the full-pull
// fallback fires and the merged view stays byte-identical to a fresh
// coordinator's.
func TestDeltaFailureModes(t *testing.T) {
	newEngine := func(seed uint64) *ecmsketch.Sharded {
		eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
			Params: ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 50000, Seed: seed},
			Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 500; e++ {
			eng.Add(uint64(e%37), uint64(e/2+1))
		}
		eng.Advance(600)
		return eng
	}

	t.Run("stale-and-garbage-cursors-yield-full", func(t *testing.T) {
		eng := newEngine(7)
		srv := serveEngineOver(eng)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, site := range []coord.Site{
			coord.NewLocalSite("local", eng),
			coord.NewHTTPSite(ts.URL, nil),
		} {
			// A cursor from the future (versions the engine never issued).
			_, cur, full, _, err := site.Delta(core.Cursor{})
			if err != nil || !full {
				t.Fatalf("%s: bootstrap: full=%v err=%v", site.Name(), full, err)
			}
			future := cur.Clone()
			future.Vers[0] += 1 << 40
			_, _, full, _, err = site.Delta(future)
			if err != nil || !full {
				t.Fatalf("%s: future cursor: full=%v err=%v", site.Name(), full, err)
			}
			// A cursor from another engine instance entirely.
			alien := core.Cursor{Epoch: 12345, Vers: make([]uint64, len(cur.Vers))}
			_, _, full, _, err = site.Delta(alien)
			if err != nil || !full {
				t.Fatalf("%s: alien cursor: full=%v err=%v", site.Name(), full, err)
			}
		}
		// Garbage ?since= strings at the HTTP layer reply with full baselines.
		for _, since := range []string{"garbage!!!", "AAAA", ""} {
			resp, err := http.Get(ts.URL + "/v1/snapshot?since=" + since)
			if err != nil {
				t.Fatal(err)
			}
			kind := resp.Header.Get("X-Ecm-Delta")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || kind != "full" {
				t.Fatalf("since=%q: status %d kind %q, want 200 full", since, resp.StatusCode, kind)
			}
		}
	})

	t.Run("site-restart-mid-interval", func(t *testing.T) {
		for _, transport := range []string{"local", "http"} {
			src := &restartableSrc{eng: newEngine(7)}
			peer := newEngine(7)
			var site coord.Site
			if transport == "local" {
				site = coord.NewLocalSite("restartable", src)
			} else {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					serveEngineOver(src.get()).ServeHTTP(w, r)
				}))
				defer ts.Close()
				site = coord.NewHTTPSite(ts.URL, nil)
			}
			co := coord.New(site, coord.NewLocalSite("peer", peer))
			if err := co.Refresh(); err != nil {
				t.Fatalf("%s: bootstrap pull: %v", transport, err)
			}
			if err := co.Refresh(); err != nil {
				t.Fatalf("%s: delta pull: %v", transport, err)
			}
			deltasBefore := co.DeltaPulls()
			fullsBefore := co.FullPulls()
			// Restart the site: same stream replayed into a fresh engine —
			// new epoch, so the held cursor must be answered with a full
			// baseline, transparently absorbed.
			src.swap(newEngine(7))
			root, err := refreshView(co)
			if err != nil {
				t.Fatalf("%s: post-restart pull: %v", transport, err)
			}
			if co.FullPulls() <= fullsBefore {
				t.Fatalf("%s: restart did not force a full pull", transport)
			}
			if co.DeltaPulls() != deltasBefore+1 { // the peer still deltas
				t.Fatalf("%s: peer stopped delta-pulling", transport)
			}
			// The merged view matches a fresh coordinator over the same
			// engines.
			want, err := refreshView(coord.New(coord.NewLocalSite("a", src), coord.NewLocalSite("b", peer)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(root.Marshal(), want.Marshal()) {
				t.Fatalf("%s: post-restart merged view diverged", transport)
			}
		}
	})

	t.Run("torn-delta-falls-back-same-interval", func(t *testing.T) {
		for _, transport := range []string{"local", "http"} {
			var site coord.Site
			var arm func()
			eng := newEngine(7)
			if transport == "local" {
				src := &tearingSrc{eng: eng}
				arm = func() { src.arm = true }
				site = coord.NewLocalSite("tearing", src)
			} else {
				armed := false
				ts := httptest.NewServer(tearingMiddleware(serveEngineOver(eng), &armed))
				defer ts.Close()
				arm = func() { armed = true }
				site = coord.NewHTTPSite(ts.URL, nil)
			}
			co := coord.New(site)
			if err := co.Refresh(); err != nil {
				t.Fatalf("%s: bootstrap: %v", transport, err)
			}
			eng.Add(777, 700)
			arm()
			fullsBefore := co.FullPulls()
			root, err := refreshView(co)
			if err != nil {
				t.Fatalf("%s: torn pull did not recover: %v", transport, err)
			}
			if co.FullPulls() != fullsBefore+1 {
				t.Fatalf("%s: torn delta did not fall back to a full pull", transport)
			}
			want, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(root.Marshal(), want.Marshal()) {
				t.Fatalf("%s: post-tear merged view diverged", transport)
			}
		}
	})

	t.Run("failed-pull-served-stale", func(t *testing.T) {
		// A failed pull is not a round error: the site's retained baseline
		// keeps serving, unchanged, while SiteStatuses names the failure
		// and the site backs off.
		eng := newEngine(7)
		flaky := &faultSite{inner: coord.NewLocalSite("flaky", eng)}
		co := coord.New(coord.NewLocalSite("steady", newEngine(7)), flaky)
		if err := co.Refresh(); err != nil {
			t.Fatal(err)
		}
		before := co.Marshal()
		flaky.setDown(true)
		eng.Add(777, 700)
		if err := co.Refresh(); err != nil {
			t.Fatalf("a failed pull failed the round: %v", err)
		}
		if st := co.LastRefresh(); st.Contributors != 2 || st.Stale != 1 || st.Excluded != 0 {
			t.Fatalf("round stats %+v, want 2 contributors, 1 stale", st)
		}
		if !bytes.Equal(co.Marshal(), before) {
			t.Fatal("stale round moved the view")
		}
		st := co.SiteStatuses()[1]
		if st.Healthy || !st.HasBaseline || st.BackoffRounds == 0 || !strings.Contains(st.LastError, "connection refused") {
			t.Fatalf("flaky status %+v, want unhealthy, baseline kept, backing off", st)
		}
	})

	t.Run("param-mismatch-names-site", func(t *testing.T) {
		a := newEngine(7)
		b := newEngine(8) // different seed: incompatible
		ts := httptest.NewServer(serveEngineOver(b))
		defer ts.Close()
		for _, sites := range [][]coord.Site{
			{coord.NewLocalSite("site-a", a), coord.NewLocalSite("site-b", b)},
			{coord.NewLocalSite("site-a", a), coord.NewHTTPSite(ts.URL, nil)},
		} {
			err := coord.New(sites...).Refresh()
			if err == nil || !strings.Contains(err.Error(), "incompatible") {
				t.Fatalf("param mismatch not reported: %v", err)
			}
		}
	})
}
