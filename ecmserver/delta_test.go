package ecmserver_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmserver"
)

func newDeltaServer(t *testing.T) (*ecmserver.Server, *httptest.Server) {
	t.Helper()
	srv, err := ecmserver.New(ecmserver.Config{
		Epsilon: 0.1, Delta: 0.1, WindowLength: 1 << 62, Seed: 3, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSnapshotSinceFlow drives the delta protocol over the raw HTTP
// surface: bootstrap baseline, incremental pull, and reconstruction
// byte-identical to the legacy full-snapshot route at every step.
func TestSnapshotSinceFlow(t *testing.T) {
	srv, ts := newDeltaServer(t)
	eng := srv.Engine()
	for e := 0; e < 1000; e++ {
		eng.Add(uint64(e%59), uint64(e+1))
	}

	var st ecmsketch.DeltaState
	pull := func(wantKind string) {
		t.Helper()
		resp, body := getRaw(t, ts.URL+"/v1/snapshot?since="+st.Cursor().String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if kind := resp.Header.Get("X-Ecm-Delta"); kind != wantKind {
			t.Fatalf("kind %q, want %q", kind, wantKind)
		}
		cur, err := ecmsketch.ParseCursor(resp.Header.Get("X-Ecm-Cursor"))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(body, cur, wantKind == "full"); err != nil {
			t.Fatal(err)
		}
		got, err := st.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		_, legacy := getRaw(t, ts.URL+"/v1/snapshot")
		if !bytes.Equal(got.Marshal(), legacy) {
			t.Fatal("delta reconstruction differs from the legacy full route")
		}
	}

	pull("full")
	eng.Add(424242, 2000)
	pull("delta")
	eng.Advance(3000) // clock-only interval
	pull("delta")
}

// TestSnapshotIgnoresGzipOffer: at both tiers, a site and a coordinator
// over it, a snapshot request that offers gzip gets identity bytes whose
// Content-Length is the payload length — full, delta and plain replies
// alike. The payload is what an identity request gets.
func TestSnapshotIgnoresGzipOffer(t *testing.T) {
	srv, site := newDeltaServer(t)
	eng := srv.Engine()
	for e := 0; e < 2000; e++ {
		eng.Add(uint64(e%211), uint64(e+1))
	}
	co := ecmsketch.NewCoordinator(ecmsketch.NewLocalSite("site", eng))
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	cs, err := ecmserver.NewOver(ecmserver.Config{}, co)
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(cs)
	t.Cleanup(coord.Close)

	get := func(url, accept string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept-Encoding", accept)
		resp, err := http.DefaultTransport.RoundTrip(req) // no transparent decompression
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
		}
		return resp, body
	}
	for _, tier := range []struct{ name, base string }{{"site", site.URL}, {"coordinator", coord.URL}} {
		resp, _ := get(tier.base+"/v1/snapshot?since=0", "identity")
		cursor := resp.Header.Get("X-Ecm-Cursor")
		for _, url := range []string{"/v1/snapshot", "/v1/snapshot?since=0", "/v1/snapshot?since=" + cursor} {
			_, plain := get(tier.base+url, "identity")
			resp, body := get(tier.base+url, "gzip")
			if ce := resp.Header.Get("Content-Encoding"); ce != "" {
				t.Errorf("%s %s: offered gzip, got Content-Encoding %q", tier.name, url, ce)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Errorf("%s %s: Content-Length %q for a %d B body", tier.name, url, cl, len(body))
			}
			if !bytes.Equal(body, plain) {
				t.Errorf("%s %s: %d B body under the gzip offer, %d B without it", tier.name, url, len(body), len(plain))
			}
		}
	}
}

// TestScalarStringsAt2pow60: every scalar 64-bit reply field of the /v1
// surface — estimate range, interval from/to, selfjoin/total range, advance
// now — renders as an exact decimal string under ?strings=1 at ticks beyond
// 2^53, and stays numeric without it.
func TestScalarStringsAt2pow60(t *testing.T) {
	_, ts := newDeltaServer(t)
	const tick = uint64(1) << 60
	const tickStr = "1152921504606846976"

	post := func(path string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	get := func(path string) map[string]json.RawMessage {
		t.Helper()
		resp, body := getRaw(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	wantString := func(out map[string]json.RawMessage, field string) {
		t.Helper()
		if string(out[field]) != `"`+tickStr+`"` {
			t.Fatalf("%s = %s, want %q", field, out[field], tickStr)
		}
	}
	wantNumeric := func(out map[string]json.RawMessage, field string) {
		t.Helper()
		if len(out[field]) == 0 || out[field][0] == '"' {
			t.Fatalf("%s = %s, want a JSON number", field, out[field])
		}
	}

	out := post("/v1/advance?t=" + tickStr + "&strings=1")
	wantString(out, "now")
	out = post("/v1/advance?t=" + tickStr)
	wantNumeric(out, "now")

	out = get("/v1/query?direct=1&ikey=5&range=" + tickStr + "&strings=1")
	wantString(out, "range")
	out = get("/v1/query?direct=1&ikey=5&range=" + tickStr)
	wantNumeric(out, "range")

	out = get("/v1/interval?ikey=5&from=1&to=" + tickStr + "&strings=1")
	wantString(out, "to")
	if string(out["from"]) != `"1"` {
		t.Fatalf("from = %s, want \"1\"", out["from"])
	}

	out = get("/v1/query?selfJoin=1&range=" + tickStr + "&strings=1")
	wantString(out, "range")
	out = get("/v1/query?total=1&range=" + tickStr + "&strings=1")
	wantString(out, "range")
}
