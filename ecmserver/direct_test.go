package ecmserver

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"ecmsketch"
)

// seedDirect ingests a small deterministic stream through the HTTP surface.
func seedDirect(t *testing.T, srv *Server) {
	t.Helper()
	for i := 0; i < 50; i++ {
		code, _ := doJSON(t, srv, "POST", "/v1/events", fmt.Sprintf(`[{"ikey":"%d","t":%d,"n":3}]`, i%5, i+1))
		if code != 200 {
			t.Fatalf("add %d: status %d", i, code)
		}
	}
}

// tier is one server of a table run at both tiers.
type tier struct {
	name string
	srv  *Server
}

// seededTiers returns a site fed seedDirect's stream and a coordinator
// refreshed over two such sites.
func seededTiers(t *testing.T) []tier {
	t.Helper()
	site, other := testServer(t), testServer(t)
	seedDirect(t, site)
	seedDirect(t, other)
	coordinator, err := NewOver(Config{}, ecmsketch.NewCoordinator(
		ecmsketch.NewLocalSite("a", site.Engine()), ecmsketch.NewLocalSite("b", other.Engine())))
	if err != nil {
		t.Fatal(err)
	}
	if err := coordinator.coord.refresh(); err != nil {
		t.Fatal(err)
	}
	return []tier{{"site", site}, {"coordinator", coordinator}}
}

// TestQueryDirectParam pins ?direct=1 on POST /v1/query at both tiers: point
// answers equal the batched ones on a quiet source, and aggregate requests
// are rejected with 400. At a site no merged view is built; a coordinator
// has no stripes, so direct is the client-uniform spelling of a read from
// the same published view.
func TestQueryDirectParam(t *testing.T) {
	for _, tc := range seededTiers(t) {
		srv := tc.srv
		body := `{"keys":[{"ikey":"0"},{"ikey":"3"},{"ikey":"99"}],"range":1000}`
		code, batched := doJSON(t, srv, "POST", "/v1/query", body)
		if code != 200 {
			t.Fatalf("%s: batched query: status %d", tc.name, code)
		}
		var rebuilds uint64
		if srv.Engine() != nil {
			rebuilds = srv.Engine().ViewRebuilds()
		}

		code, direct := doJSON(t, srv, "POST", "/v1/query?direct=1", body)
		if code != 200 {
			t.Fatalf("%s: direct query: status %d", tc.name, code)
		}
		b := batched["estimates"].([]any)
		d := direct["estimates"].([]any)
		if len(b) != 3 || len(d) != 3 {
			t.Fatalf("%s: estimates lengths: batched %d direct %d", tc.name, len(b), len(d))
		}
		for i := range b {
			if b[i] != d[i] {
				t.Fatalf("%s: estimate %d: direct %v != batched %v", tc.name, i, d[i], b[i])
			}
		}
		if srv.Engine() != nil {
			if got := srv.Engine().ViewRebuilds(); got != rebuilds {
				t.Fatalf("direct query triggered %d view rebuilds", got-rebuilds)
			}
		}

		code, _ = doJSON(t, srv, "POST", "/v1/query?direct=1", `{"keys":[{"ikey":"1"}],"total":true}`)
		if code != 400 {
			t.Fatalf("%s: direct query with total: status %d, want 400", tc.name, code)
		}
	}
}

// TestQueryGet pins the GET form of /v1/query at both tiers: repeated
// key=/ikey= parameters in request order, range resolution, aggregates,
// and ?direct=1.
func TestQueryGet(t *testing.T) {
	for _, tc := range seededTiers(t) {
		srv := tc.srv
		code, out := doJSON(t, srv, "GET", "/v1/query?ikey=0&ikey=3&range=1000&total=1", "")
		if code != 200 {
			t.Fatalf("%s: GET query: status %d", tc.name, code)
		}
		ests := out["estimates"].([]any)
		if len(ests) != 2 {
			t.Fatalf("%s: estimates length %d, want 2", tc.name, len(ests))
		}
		if _, ok := out["total"]; !ok {
			t.Fatalf("%s: total=1 reply missing total", tc.name)
		}

		// GET and POST answer identically for the same batch.
		code, post := doJSON(t, srv, "POST", "/v1/query", `{"keys":[{"ikey":"0"},{"ikey":"3"}],"range":1000}`)
		if code != 200 {
			t.Fatalf("%s: POST query: status %d", tc.name, code)
		}
		pests := post["estimates"].([]any)
		for i := range ests {
			if ests[i] != pests[i] {
				t.Fatalf("%s: estimate %d: GET %v != POST %v", tc.name, i, ests[i], pests[i])
			}
		}

		// Direct GET rejects aggregates like the POST form.
		if code, _ := doJSON(t, srv, "GET", "/v1/query?ikey=0&total=1&direct=1", ""); code != 400 {
			t.Fatalf("%s: GET direct with total: status %d, want 400", tc.name, code)
		}
		if code, _ := doJSON(t, srv, "GET", "/v1/query?ikey=0&direct=1", ""); code != 200 {
			t.Fatalf("%s: GET direct: status %d", tc.name, code)
		}
	}
}

// TestStatsRebuildBlock pins the merge-timing block of /v1/stats at both
// tiers — a site's "rebuild" after a global query forces a view build, a
// coordinator's "lastRefresh" after a pull round: merge_ns and workers are
// present, and merge_ns honors ?strings=1 like every other 64-bit field.
func TestStatsRebuildBlock(t *testing.T) {
	for _, tc := range seededTiers(t) {
		srv, block := tc.srv, "lastRefresh"
		if srv.Engine() != nil {
			block = "rebuild"
			if code, _ := doJSON(t, srv, "GET", "/v1/query?selfJoin=1&range=1000", ""); code != 200 {
				t.Fatal("selfjoin failed")
			}
		}

		code, out := doJSON(t, srv, "GET", "/v1/stats", "")
		if code != 200 {
			t.Fatalf("%s: stats: status %d", tc.name, code)
		}
		rb, ok := out[block].(map[string]any)
		if !ok {
			t.Fatalf("%s: stats missing %s block: %v", tc.name, block, out)
		}
		// Only a site's rebuild is sure to have taken measurable time.
		if ns, ok := rb["merge_ns"].(float64); !ok || (srv.Engine() != nil && ns <= 0) {
			t.Fatalf("%s: %s merge_ns = %v, want a (positive, at a site) number", tc.name, block, rb["merge_ns"])
		}
		if w, ok := rb["workers"].(float64); !ok || w < 1 {
			t.Fatalf("%s: %s workers = %v, want >= 1", tc.name, block, rb["workers"])
		}

		_, outS := doJSON(t, srv, "GET", "/v1/stats?strings=1", "")
		rbS := outS[block].(map[string]any)
		if _, ok := rbS["merge_ns"].(string); !ok {
			t.Fatalf("%s: %s merge_ns with ?strings=1 = %T, want string", tc.name, block, rbS["merge_ns"])
		}
	}
}

// TestProfilingMount pins the pprof surface at both tiers: absent by
// default, mounted with EnableProfiling, and behind the bearer check when a
// token is set — the profiling routes are never reachable unauthenticated
// on an authenticated server, and neither are a coordinator's own routes.
func TestProfilingMount(t *testing.T) {
	for _, tc := range []struct {
		name, ownRoute string
		build          func(Config) (*Server, error)
	}{
		{"site", "/v1/stats", func(cfg Config) (*Server, error) {
			cfg.Epsilon, cfg.Delta, cfg.WindowLength, cfg.Seed = 0.05, 0.05, 10000, 7
			return New(cfg)
		}},
		{"coordinator", "/v1/sites", func(cfg Config) (*Server, error) {
			return NewOver(cfg, ecmsketch.NewCoordinator())
		}},
	} {
		plain, err := tc.build(Config{})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		plain.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
		if rec.Code != 404 {
			t.Fatalf("%s: pprof reachable without EnableProfiling: status %d", tc.name, rec.Code)
		}

		srv, err := tc.build(Config{AuthToken: "s3cret", EnableProfiling: true})
		if err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
		if rec.Code != 401 {
			t.Fatalf("%s: pprof reachable without token: status %d", tc.name, rec.Code)
		}
		req := httptest.NewRequest("GET", "/debug/pprof/cmdline", nil)
		req.Header.Set("Authorization", "Bearer s3cret")
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s: pprof with token: status %d", tc.name, rec.Code)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", tc.ownRoute, nil))
		if rec.Code != 401 {
			t.Fatalf("%s: %s reachable without token: status %d", tc.name, tc.ownRoute, rec.Code)
		}
	}
}
