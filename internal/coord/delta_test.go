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
)

// deltaTestEngines builds n sharded engines with strict view freshness and
// distinct preloaded streams, advanced to a common clock.
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
		var evs []ecmsketch.Event
		for e := 0; e < 2000; e++ {
			evs = append(evs, ecmsketch.Event{Key: uint64(e%83) + uint64(i)*500, Tick: uint64(e/4 + 1)})
		}
		eng.AddBatch(evs)
		eng.Advance(1000)
		engines[i] = eng
	}
	return engines
}

// mutateSlow moves a small key set on every engine — the slow-moving-stream
// regime deltas exist for.
func mutateSlow(engines []*ecmsketch.Sharded, round int) {
	tick := uint64(1000 + round*100)
	for i, eng := range engines {
		var evs []ecmsketch.Event
		for k := 0; k < 4; k++ {
			evs = append(evs, ecmsketch.Event{Key: uint64(round*13 + k + i*500), Tick: tick})
		}
		eng.AddBatch(evs)
		eng.Advance(tick + 50)
	}
}

// TestDeltaCoordinatorBitIdentical is the tentpole equivalence: across
// mutation intervals, a coordinator that baselines once and then only ever
// applies deltas produces merged summaries byte-identical to a fresh
// coordinator pulling every site in full at the same versions — over the
// in-process transport, over HTTP, and across the two (all four roots equal
// every interval) — while pulling far fewer bytes.
func TestDeltaCoordinatorBitIdentical(t *testing.T) {
	engines := deltaTestEngines(t, 3)
	localSites := make([]coord.Site, len(engines))
	httpSites := make([]coord.Site, len(engines))
	for i, eng := range engines {
		// Serve the same engine the local sites wrap, so all transports
		// observe one state.
		ts := httptest.NewServer(serveEngineOver(eng))
		t.Cleanup(ts.Close)
		localSites[i] = coord.NewLocalSite(fmt.Sprintf("site-%d", i), eng)
		httpSites[i] = coord.NewHTTPSite(ts.URL, nil)
	}
	localDelta := coord.New(localSites...)
	httpDelta := coord.New(httpSites...)

	var deltaBytesPrev, steadyFull, steadyDelta int64
	for round := 0; round < 6; round++ {
		if round > 0 {
			mutateSlow(engines, round)
		}
		localFull, httpFull := coord.New(localSites...), coord.New(httpSites...)
		roots := make([][]byte, 4)
		for ci, co := range []*coord.Coordinator{localFull, localDelta, httpFull, httpDelta} {
			root, err := refreshView(co)
			if err != nil {
				t.Fatalf("round %d coordinator %d: %v", round, ci, err)
			}
			roots[ci] = root.Marshal()
		}
		for ci := 1; ci < 4; ci++ {
			if !bytes.Equal(roots[0], roots[ci]) {
				t.Fatalf("round %d: coordinator %d root differs from the fresh coordinator's", round, ci)
			}
		}
		if round >= 2 {
			// Steady state: count bytes per interval once the delta
			// coordinators are warm.
			steadyFull += localFull.PulledBytes()
			steadyDelta += localDelta.PulledBytes() - deltaBytesPrev
		}
		deltaBytesPrev = localDelta.PulledBytes()
	}
	if got := localDelta.DeltaPulls(); got < 15 {
		t.Fatalf("local delta coordinator answered %d delta pulls, want ≥15", got)
	}
	if got := httpDelta.DeltaPulls(); got < 15 {
		t.Fatalf("http delta coordinator answered %d delta pulls, want ≥15", got)
	}
	if steadyDelta*5 > steadyFull {
		t.Fatalf("steady-state delta bytes %d not ≥5× below full %d", steadyDelta, steadyFull)
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

// tearingMiddleware is the HTTP analog: it strips the gzip offer (so the
// body is identity-coded), then truncates one delta reply's payload while
// keeping the HTTP framing valid.
func tearingMiddleware(inner http.Handler, arm *bool) http.Handler {
	tore := false
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept-Encoding")
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

// TestFullAndDeltaPullsAgree pins the one pull path: a coordinator that
// only ever applied deltas and a fresh coordinator built each round over
// the same sites — a plain sketch, a one- and a four-stripe engine and a
// child coordinator, each in process and over HTTP — hold byte-identical
// roots after every Refresh, for every synopsis, while the stream slides
// more than three windows past. Each fresh coordinator presents the zero
// cursor: exactly one full pull per site, and no deltas.
func TestFullAndDeltaPullsAgree(t *testing.T) {
	const window, ticksPerRound, rounds = 256, 32, 28 // 3.5 windows
	for _, algo := range []ecmsketch.Algorithm{ecmsketch.AlgoEH, ecmsketch.AlgoDW, ecmsketch.AlgoRW} {
		t.Run(algo.String(), func(t *testing.T) {
			p := ecmsketch.Params{Epsilon: 0.25, Delta: 0.25, Algorithm: algo,
				WindowLength: window, UpperBound: 1 << 12, Seed: 17}
			sharded := func(stripes int) *ecmsketch.Sharded {
				eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: stripes})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			var leaves []ecmsketch.Ingestor
			var children []*coord.Coordinator
			var sites []coord.Site
			for _, transport := range []string{"local", "http"} {
				plain, err := core.New(p)
				if err != nil {
					t.Fatal(err)
				}
				one, four, childLeaf := sharded(1), sharded(4), sharded(2)
				child := coord.New(coord.NewLocalSite("leaf", childLeaf))
				leaves = append(leaves, plain, one, four, childLeaf)
				children = append(children, child)
				for _, src := range []struct {
					name string
					src  ecmserver.Source
				}{{"sketch", plain}, {"stripes-1", one}, {"stripes-4", four}, {"child", child}} {
					name := transport + "-" + src.name
					if transport == "local" {
						sites = append(sites, coord.NewLocalSite(name, src.src))
						continue
					}
					srv, err := ecmserver.NewOver(ecmserver.Config{WindowLength: window}, src.src)
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(srv)
					t.Cleanup(ts.Close)
					site := coord.NewHTTPSite(ts.URL, nil)
					site.SetName(name)
					sites = append(sites, site)
				}
			}
			delta := coord.New(sites...)

			tick := uint64(0)
			for round := 0; round < rounds; round++ {
				for range ticksPerRound {
					tick++
					for i, leaf := range leaves {
						leaf.AddBatch([]ecmsketch.Event{
							{Key: (tick*7 + uint64(i)) % 61, Tick: tick},
							{Key: uint64(100 + i), Tick: tick},
						})
					}
				}
				for _, child := range children {
					if err := child.Refresh(); err != nil {
						t.Fatalf("round %d: child refresh: %v", round, err)
					}
				}
				fresh := coord.New(sites...)
				for _, co := range []*coord.Coordinator{fresh, delta} {
					if err := co.Refresh(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				if !bytes.Equal(fresh.Marshal(), delta.Marshal()) {
					t.Fatalf("round %d (tick %d): fresh root differs from delta-pull root", round, tick)
				}
				if got, want := fresh.FullPulls(), uint64(len(sites)); got != want || fresh.DeltaPulls() != 0 {
					t.Fatalf("round %d: fresh coordinator: %d full, %d delta pulls; want %d full, 0 delta", round, got, fresh.DeltaPulls(), want)
				}
			}
			if delta.DeltaPulls() == 0 {
				t.Fatal("delta-pull coordinator never pulled a delta")
			}
		})
	}
}
