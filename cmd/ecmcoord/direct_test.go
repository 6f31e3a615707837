package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecmsketch/ecmserver"
)

// TestCoordServerDirectQuery pins ?direct=1 and the GET form of /v1/query
// on the coordinator surface: point answers come from the same published
// view as the batched path (a coordinator has no stripes — direct is the
// client-uniform spelling), aggregates are rejected with 400 under
// direct=1, and the stats carry the per-round merge_ns and worker count.
func TestCoordServerDirectQuery(t *testing.T) {
	sites := newEcmserverSites(t, 2)
	cs := newTestCoordServer(t, http.DefaultClient, []string{sites[0].URL, sites[1].URL})
	if err := cs.refresh(); err != nil {
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

// TestCoordServerProfilingMount pins the opt-in pprof surface: absent by
// default, mounted by the shared server's EnableProfiling, and behind its
// bearer check when a token is configured.
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
		t.Fatalf("pprof reachable without -pprof: %s", resp.Status)
	}

	cs2, err := newCoordServer(newCoordinator(http.DefaultClient, []string{sites[0].URL}, ""), 0,
		ecmserver.Config{AuthToken: "tok", EnableProfiling: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
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
