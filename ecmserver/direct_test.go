package ecmserver

import (
	"fmt"
	"net/http/httptest"
	"testing"
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

// TestQueryDirectParam pins ?direct=1 on POST /v1/query: point answers equal
// the batched ones on a quiet engine, no merged view is built, and
// aggregate requests are rejected with 400.
func TestQueryDirectParam(t *testing.T) {
	srv := testServer(t)
	seedDirect(t, srv)

	body := `{"keys":[{"ikey":"0"},{"ikey":"3"},{"ikey":"99"}],"range":1000}`
	code, batched := doJSON(t, srv, "POST", "/v1/query", body)
	if code != 200 {
		t.Fatalf("batched query: status %d", code)
	}
	rebuilds := srv.Engine().ViewRebuilds()

	code, direct := doJSON(t, srv, "POST", "/v1/query?direct=1", body)
	if code != 200 {
		t.Fatalf("direct query: status %d", code)
	}
	b := batched["estimates"].([]any)
	d := direct["estimates"].([]any)
	if len(b) != 3 || len(d) != 3 {
		t.Fatalf("estimates lengths: batched %d direct %d", len(b), len(d))
	}
	for i := range b {
		if b[i] != d[i] {
			t.Fatalf("estimate %d: direct %v != batched %v", i, d[i], b[i])
		}
	}
	if got := srv.Engine().ViewRebuilds(); got != rebuilds {
		t.Fatalf("direct query triggered %d view rebuilds", got-rebuilds)
	}

	code, _ = doJSON(t, srv, "POST", "/v1/query?direct=1", `{"keys":[{"ikey":"1"}],"total":true}`)
	if code != 400 {
		t.Fatalf("direct query with total: status %d, want 400", code)
	}
}

// TestQueryGet pins the GET form of /v1/query: repeated key=/ikey=
// parameters in request order, range resolution, aggregates, and ?direct=1.
func TestQueryGet(t *testing.T) {
	srv := testServer(t)
	seedDirect(t, srv)

	code, out := doJSON(t, srv, "GET", "/v1/query?ikey=0&ikey=3&range=1000&total=1", "")
	if code != 200 {
		t.Fatalf("GET query: status %d", code)
	}
	ests := out["estimates"].([]any)
	if len(ests) != 2 {
		t.Fatalf("estimates length %d, want 2", len(ests))
	}
	if _, ok := out["total"]; !ok {
		t.Fatal("total=1 reply missing total")
	}

	// GET and POST answer identically for the same batch.
	code, post := doJSON(t, srv, "POST", "/v1/query", `{"keys":[{"ikey":"0"},{"ikey":"3"}],"range":1000}`)
	if code != 200 {
		t.Fatalf("POST query: status %d", code)
	}
	pests := post["estimates"].([]any)
	for i := range ests {
		if ests[i] != pests[i] {
			t.Fatalf("estimate %d: GET %v != POST %v", i, ests[i], pests[i])
		}
	}

	// Direct GET rejects aggregates like the POST form.
	if code, _ := doJSON(t, srv, "GET", "/v1/query?ikey=0&total=1&direct=1", ""); code != 400 {
		t.Fatalf("GET direct with total: status %d, want 400", code)
	}
	if code, _ := doJSON(t, srv, "GET", "/v1/query?ikey=0&direct=1", ""); code != 200 {
		t.Fatalf("GET direct: status %d", code)
	}
}

// TestStatsRebuildBlock pins the /v1/stats rebuild block: after a global
// query forces a view build, merge_ns and workers are present — and
// merge_ns honors ?strings=1 like every other 64-bit field.
func TestStatsRebuildBlock(t *testing.T) {
	srv := testServer(t)
	seedDirect(t, srv)
	if code, _ := doJSON(t, srv, "GET", "/v1/query?selfJoin=1&range=1000", ""); code != 200 {
		t.Fatal("selfjoin failed")
	}

	code, out := doJSON(t, srv, "GET", "/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	rb, ok := out["rebuild"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing rebuild block: %v", out)
	}
	if ns, ok := rb["merge_ns"].(float64); !ok || ns <= 0 {
		t.Fatalf("rebuild merge_ns = %v, want positive number", rb["merge_ns"])
	}
	if w, ok := rb["workers"].(float64); !ok || w < 1 {
		t.Fatalf("rebuild workers = %v, want >= 1", rb["workers"])
	}

	_, outS := doJSON(t, srv, "GET", "/v1/stats?strings=1", "")
	rbS := outS["rebuild"].(map[string]any)
	if _, ok := rbS["merge_ns"].(string); !ok {
		t.Fatalf("rebuild merge_ns with ?strings=1 = %T, want string", rbS["merge_ns"])
	}
}

// TestProfilingMount pins the pprof surface: absent by default, mounted
// with EnableProfiling, and behind the bearer check when a token is set —
// the profiling routes are never reachable unauthenticated on an
// authenticated server.
func TestProfilingMount(t *testing.T) {
	plain := testServer(t)
	req := httptest.NewRequest("GET", "/debug/pprof/cmdline", nil)
	rec := httptest.NewRecorder()
	plain.ServeHTTP(rec, req)
	if rec.Code != 404 {
		t.Fatalf("pprof reachable without EnableProfiling: status %d", rec.Code)
	}

	srv, err := New(Config{
		Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Algorithm: "eh",
		Seed: 7, AuthToken: "s3cret", EnableProfiling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 401 {
		t.Fatalf("pprof reachable without token: status %d", rec.Code)
	}
	req = httptest.NewRequest("GET", "/debug/pprof/cmdline", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("pprof with token: status %d", rec.Code)
	}
}
