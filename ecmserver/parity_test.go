package ecmserver

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ecmsketch"
)

// parityCall is one request of the surface-parity table; want is the status
// both tiers must answer.
type parityCall struct {
	method, url, body string
	want              int
}

// serve runs one request with the test bearer token (unless anon) and the
// given Accept-Encoding.
func (c parityCall) serve(h http.Handler, anon bool, acceptEncoding string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(c.method, c.url, strings.NewReader(c.body))
	if !anon {
		req.Header.Set("Authorization", "Bearer tok")
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSurfaceParity runs one request table against a Server over a Sharded
// (a site) and a Server over a one-site Coordinator fed the same events: the
// shared read routes must answer with equal status codes and equal bodies,
// the coordinator must answer 503 before its first refresh, and it must not
// mount a single write route. Counts stay small enough that every histogram
// bucket is a singleton, so the coordinator's re-merge of the site's summary
// is exact and "equal" means byte-equal JSON.
func TestSurfaceParity(t *testing.T) {
	site, err := New(Config{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 7, Shards: 4, AuthToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	co := ecmsketch.NewCoordinator(ecmsketch.NewLocalSite("site", site.Engine()))
	coord, err := NewOver(Config{AuthToken: "tok"}, co)
	if err != nil {
		t.Fatal(err)
	}

	reads := []parityCall{
		{"GET", "/v1/query?key=alpha&direct=1", "", 200},
		{"GET", "/v1/query?total=1", "", 200},
		{"GET", "/v1/query?selfJoin=1", "", 200},
		{"GET", "/v1/query?key=alpha&total=1", "", 200},
		{"POST", "/v1/query", `{"keys":[{"key":"alpha"}]}`, 200},
		{"GET", "/v1/snapshot", "", 200},
		{"GET", "/v1/snapshot?since=0", "", 200},
	}
	// Before its first refresh the coordinator has no view: 503 on every
	// read route, while /v1/stats already answers.
	for _, c := range reads {
		if rec := c.serve(coord, false, ""); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("coordinator before refresh: %s %s = %d, want 503", c.method, c.url, rec.Code)
		}
	}
	if rec := (parityCall{"GET", "/v1/stats", "", 200}).serve(coord, false, ""); rec.Code != 200 {
		t.Errorf("coordinator before refresh: /v1/stats = %d, want 200", rec.Code)
	}

	// The same events reach both tiers: ingested at the site, pulled by the
	// coordinator. Ticks sit at 2^60 so ?strings=1 has something to protect.
	const base = uint64(1) << 60
	var evs []ecmsketch.Event
	for i, k := range []string{"alpha", "alpha", "beta", "alpha", "gamma", "beta", "alpha", "delta", "beta", "alpha", "gamma", "beta"} {
		evs = append(evs, ecmsketch.Event{Key: ecmsketch.KeyString(k), Tick: base + uint64(i)})
	}
	evs = append(evs, ecmsketch.Event{Key: 42, Tick: base + 12, N: 3})
	site.Engine().AddBatch(evs)
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}

	manyKeys := func(n int, sep, format string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fmt.Sprintf(format, i)
		}
		return strings.Join(parts, sep)
	}
	// The JSON routes of reads, then the rest of the table.
	table := append(slices.Clone(reads[:5]), []parityCall{
		{"GET", "/v1/query?key=alpha&range=5&strings=1&direct=1", "", 200},
		{"GET", "/v1/query?ikey=42&direct=1", "", 200},
		{"GET", "/v1/query?key=never-seen&direct=1", "", 200},
		{"GET", "/v1/query?total=1&range=3", "", 200},
		{"GET", "/v1/query?total=1&range=0", "", 200}, // zero means the whole window
		{"GET", "/v1/query?selfJoin=1&range=7&strings=1", "", 200},
		{"POST", "/v1/query", `{"keys":[{"key":"alpha"},{"ikey":"42"},{"key":"beta"}],"range":9,"total":true,"selfJoin":true}`, 200},
		{"POST", "/v1/query?strings=1", `{"keys":[{"key":"gamma"}],"total":true}`, 200},
		{"POST", "/v1/query", `{"selfJoin":true}`, 200},
		{"GET", "/v1/query?key=alpha&ikey=42&key=delta&selfJoin=1&strings=1", "", 200},
		{"GET", "/v1/query?key=alpha&key=beta&direct=1", "", 200},
		{"POST", "/v1/query?direct=1", `{"keys":[{"ikey":"42"}],"range":4}`, 200},
		{"GET", "/v1/query?key=alpha&total=1&direct=1", "", 400},
		{"POST", "/v1/query?direct=1", `{"selfJoin":true}`, 400},
		{"GET", "/v1/query?ikey=zz&direct=1", "", 400},
		{"GET", "/v1/query?key=alpha&range=x&direct=1", "", 400},
		{"GET", "/v1/query?total=1&range=-1", "", 400},
		{"GET", "/v1/query?selfJoin=1&range=1e3", "", 400},
		{"GET", "/v1/query?ikey=nope", "", 400},
		{"POST", "/v1/query", `{"keys":[{"key":"alpha"}],"bogus":1}`, 400},
		{"POST", "/v1/query", `{"keys":[` + manyKeys(4096, ",", `{"ikey":"%d"}`) + `]}`, 200},
		{"POST", "/v1/query", `{"keys":[` + manyKeys(4097, ",", `{"ikey":"%d"}`) + `]}`, 400},
		{"GET", "/v1/query?" + manyKeys(4097, "&", "ikey=%d"), "", 400},
	}...)
	for _, c := range table {
		s, k := c.serve(site, false, ""), c.serve(coord, false, "")
		if s.Code != c.want || k.Code != c.want {
			t.Errorf("%s %.60s: site %d, coordinator %d, want %d", c.method, c.url, s.Code, k.Code, c.want)
		}
		if !bytes.Equal(s.Body.Bytes(), k.Body.Bytes()) {
			t.Errorf("%s %.60s: bodies differ\n site:        %.200s\n coordinator: %.200s", c.method, c.url, s.Body, k.Body)
		}
		if anon := c.serve(coord, true, ""); anon.Code != http.StatusUnauthorized {
			t.Errorf("%s %.60s without the token: coordinator %d, want 401", c.method, c.url, anon.Code)
		}
	}
	// 2^60 survives ?strings=1 as a decimal string.
	if body := (parityCall{"GET", "/v1/query?key=alpha&strings=1", "", 200}).serve(coord, false, "").Body.String(); !strings.Contains(body, `"now":"1152921504606846988"`) {
		t.Errorf("?strings=1 reply lost the 2^60 clock: %s", body)
	}

	// Snapshot routes: payloads are each tier's own summary, so parity is in
	// the protocol — status, payload kind, cursor presence, identity coding.
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{{"site", site}, {"coordinator", coord}} {
		snap := func(url, acceptEncoding string) *httptest.ResponseRecorder {
			rec := (parityCall{"GET", url, "", 200}).serve(tier.h, false, acceptEncoding)
			if rec.Code != 200 {
				t.Fatalf("%s: GET %s = %d", tier.name, url, rec.Code)
			}
			return rec
		}
		if rec := snap("/v1/snapshot", ""); rec.Header().Get("X-Ecm-Delta") != "" || rec.Header().Get("X-Ecm-Cursor") != "" ||
			rec.Header().Get("X-Ecm-Count") != "15" || rec.Header().Get("X-Ecm-Now") != "1152921504606846988" {
			t.Errorf("%s: GET /v1/snapshot headers %v", tier.name, rec.Header())
		}
		var cursor string
		for _, since := range []string{"?since=", "?since=0", "?since=garbage"} {
			rec := snap("/v1/snapshot"+since, "")
			cursor = rec.Header().Get("X-Ecm-Cursor")
			if rec.Header().Get("X-Ecm-Delta") != "full" || cursor == "" {
				t.Errorf("%s: %s: kind %q cursor %q, want a full baseline with a cursor", tier.name, since, rec.Header().Get("X-Ecm-Delta"), cursor)
			}
		}
		if rec := snap("/v1/snapshot?since="+cursor, "gzip"); rec.Header().Get("X-Ecm-Delta") != "delta" ||
			rec.Header().Get("Content-Encoding") != "" || rec.Header().Get("X-Ecm-Count") != "15" {
			t.Errorf("%s: valid cursor: headers %v, want an identity-encoded delta", tier.name, rec.Header())
		}
	}

	// Stats share the envelope; the blocks inside are each tier's own.
	for name, h := range map[string]http.Handler{"site": site, "coordinator": coord} {
		body := (parityCall{"GET", "/v1/stats", "", 200}).serve(h, false, "").Body.String()
		if !strings.Contains(body, `"apiVersion":"v1"`) || !strings.Contains(body, `"standing":{`) {
			t.Errorf("%s stats lack the shared envelope: %s", name, body)
		}
	}

	// A coordinator ingests nothing: no write route, and none of the routes
	// that need a site engine.
	for _, c := range []parityCall{
		{"POST", "/v1/events", `[{"key":"alpha","t":5}]`, 0},
		{"POST", "/v1/advance?t=99", "", 0},
		{"GET", "/v1/interval?key=alpha&from=1&to=9", "", 0},
	} {
		if rec := c.serve(coord, false, ""); rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("coordinator: %s %s = %d, want 404 or 405", c.method, c.url, rec.Code)
		}
	}
	if rec := (parityCall{"GET", "/v1/query?total=1", "", 200}).serve(coord, false, ""); !strings.Contains(rec.Body.String(), `"total":15`) {
		t.Errorf("coordinator total moved after rejected writes: %s", rec.Body)
	}
}
