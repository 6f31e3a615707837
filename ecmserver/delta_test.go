package ecmserver_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestSnapshotGzip: the snapshot routes compress when (and only when) the
// request offers gzip and the payload is worth it.
func TestSnapshotGzip(t *testing.T) {
	srv, ts := newDeltaServer(t)
	eng := srv.Engine()
	for e := 0; e < 2000; e++ {
		eng.Add(uint64(e%211), uint64(e+1))
	}
	_, plain := getRaw(t, ts.URL+"/v1/snapshot")

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/snapshot", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultTransport.RoundTrip(req) // no transparent decompression
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("offered gzip, got Content-Encoding %q", resp.Header.Get("Content-Encoding"))
	}
	if len(raw) >= len(plain) {
		t.Fatalf("gzip body %dB not smaller than identity %dB", len(raw), len(plain))
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inflated, plain) {
		t.Fatal("gzip payload does not inflate to the identity payload")
	}

	// A near-empty delta reply stays identity-coded: compressing a few
	// dozen bytes would grow them.
	resp2, body := getRaw(t, ts.URL+"/v1/snapshot?since=0")
	_ = body
	cur := resp2.Header.Get("X-Ecm-Cursor")
	req3, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/snapshot?since="+cur, nil)
	req3.Header.Set("Accept-Encoding", "gzip")
	resp3, err := http.DefaultTransport.RoundTrip(req3)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.Header.Get("Content-Encoding") == "gzip" {
		t.Fatal("tiny delta reply was gzipped")
	}
	if len(small) > 128 {
		t.Fatalf("idle delta reply is %dB", len(small))
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
