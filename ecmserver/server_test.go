package ecmserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ecmsketch"
	"ecmsketch/internal/wire"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{
		Epsilon:      0.05,
		Delta:        0.05,
		WindowLength: 10000,
		Algorithm:    "eh",
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func doJSON(t *testing.T, srv *Server, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, url, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 && strings.Contains(rec.Header().Get("Content-Type"), "json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON from %s %s: %v", method, url, err)
		}
	}
	return rec.Code, out
}

// add ingests n arrivals of a string key at tick the way every writer does:
// a one-element POST /v1/events.
func add(t *testing.T, srv *Server, key string, tick, n int) int {
	t.Helper()
	code, _ := doJSON(t, srv, "POST", "/v1/events", fmt.Sprintf(`[{"key":%q,"t":%d,"n":%d}]`, key, tick, n))
	return code
}

// estimate reads one key's zero-merge point estimate: GET /v1/query?direct=1
// with params naming the key ("key=/home", "ikey=42") and optionally a range.
func estimate(t *testing.T, srv *Server, params string) float64 {
	t.Helper()
	code, out := doJSON(t, srv, "GET", "/v1/query?direct=1&"+params, "")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/query?direct=1&%s returned %d: %v", params, code, out)
	}
	return out["estimates"].([]any)[0].(float64)
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Epsilon: 0.1, Delta: 0.1, WindowLength: 100, Algorithm: "bogus"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := New(Config{Epsilon: 0, Delta: 0.1, WindowLength: 100}); err == nil {
		t.Error("zero epsilon accepted")
	}
}

func TestAddAndEstimate(t *testing.T) {
	srv := testServer(t)
	for i := 1; i <= 50; i++ {
		if code := add(t, srv, "/home", i, 1); code != http.StatusOK {
			t.Fatalf("add returned %d", code)
		}
	}
	if est := estimate(t, srv, "key=/home&range=10000"); est < 45 || est > 60 {
		t.Errorf("estimate = %v, want ≈50", est)
	}
	// Unknown key estimates near zero.
	if est := estimate(t, srv, "key=/missing"); est > 10 {
		t.Errorf("estimate for unseen key = %v", est)
	}
}

func TestAddValidation(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct{ method, url, body string }{
		{"POST", "/v1/events", `[{}]`},                    // no key, no t
		{"POST", "/v1/events", `[{"key":"a"}]`},           // no t
		{"POST", "/v1/events", `[{"key":"a","t":"abc"}]`}, // bad t
		{"POST", "/v1/events", `[{"ikey":"zzz","t":5}]`},  // bad ikey
		{"GET", "/v1/query?ikey=zzz&direct=1", ""},        // bad ikey
		{"GET", "/v1/query?key=a&range=x&direct=1", ""},   // bad range
	} {
		code, _ := doJSON(t, srv, tc.method, tc.url, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s %s %s returned %d, want 400", tc.method, tc.url, tc.body, code)
		}
	}
}

func TestIntegerKeys(t *testing.T) {
	srv := testServer(t)
	doJSON(t, srv, "POST", "/v1/events", `[{"ikey":"42","t":1,"n":7}]`)
	if est := estimate(t, srv, "ikey=42"); est < 7 {
		t.Errorf("estimate = %v, want ≥7", est)
	}
}

func TestBatchIngest(t *testing.T) {
	srv := testServer(t)
	body := strings.Join([]string{
		"# comment line",
		"/home,1",
		"/home,2",
		"/about,3,5",
		"",
		"garbage-line",
		"/home,notanumber",
		"/home,4",
	}, "\n")
	code, out := doJSON(t, srv, "POST", "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch returned %d", code)
	}
	if acc := out["accepted"].(float64); acc != 4 {
		t.Errorf("accepted = %v, want 4", acc)
	}
	if _, hasErr := out["firstError"]; !hasErr {
		t.Error("malformed lines not reported")
	}
	if v := estimate(t, srv, "key=/about"); v < 5 {
		t.Errorf("/about estimate = %v, want ≥5", v)
	}
}

// TestBatchOversizedLine forces the line scanner's error on /v1/batch: a
// line over 1 MiB stops the scan, and the reply is /v1/events' — 400 with
// the error and an accepted count — with every record before the bad line
// applied, the ones parsed since the last 4096-record flush included.
func TestBatchOversizedLine(t *testing.T) {
	srv := testServer(t)
	const before = ingestFlushEvery + 904
	var body strings.Builder
	for i := 1; i <= before; i++ {
		fmt.Fprintf(&body, "/home,%d\n", i)
	}
	body.WriteString(strings.Repeat("x", 1<<20+1) + ",1\n/home,9000\n")
	code, out := doJSON(t, srv, "POST", "/v1/batch", body.String())
	if code != http.StatusBadRequest {
		t.Fatalf("batch with a 1 MiB line returned %d, want 400", code)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "token too long") {
		t.Errorf("error = %q, want the scanner's token-too-long", msg)
	}
	if acc, ok := out["accepted"].(float64); !ok || acc != before {
		t.Errorf("accepted = %v, want %d", out["accepted"], before)
	}
	if _, stats := doJSON(t, srv, "GET", "/v1/stats", ""); stats["count"].(float64) != before {
		t.Errorf("engine count = %v, want %d: accepted must mean applied", stats["count"], before)
	}
}

// TestEventCountCap: a record may claim wire.MaxEventCount arrivals and not
// one more. Past it both ingest routes answer 400 {"error","accepted"} with
// every record before the bad one applied and nothing behind it read — one
// well-formed line can no longer hold a stripe lock for 2^64 inserts.
func TestEventCountCap(t *testing.T) {
	const before = ingestFlushEvery
	var lines, elems strings.Builder
	for i := 1; i <= before; i++ {
		fmt.Fprintf(&lines, "/home,%d\n", i)
		fmt.Fprintf(&elems, `{"key":"/home","t":%d},`, i)
	}
	for route, body := range map[string]string{
		"/v1/batch":  lines.String() + fmt.Sprintf("/big,9000,%d\n/home,9001\n", wire.MaxEventCount+1),
		"/v1/events": "[" + elems.String() + fmt.Sprintf(`{"key":"/big","t":9000,"n":%d},{"key":"/home","t":9001}]`, wire.MaxEventCount+1),
	} {
		srv := testServer(t)
		code, out := doJSON(t, srv, "POST", route, body)
		if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "at most 1048576 arrivals") {
			t.Errorf("%s: status %d error %q, want 400 naming the cap", route, code, msg)
		}
		if acc, ok := out["accepted"].(float64); !ok || acc != before {
			t.Errorf("%s: accepted = %v, want %d", route, out["accepted"], before)
		}
		if got := srv.Engine().Count(); got != before {
			t.Errorf("%s: engine count = %d, want %d: accepted must mean applied, the rest untouched", route, got, before)
		}
	}

	srv := testServer(t)
	atCap := fmt.Sprintf("/big,1,%d\n", wire.MaxEventCount)
	if code, out := doJSON(t, srv, "POST", "/v1/batch", atCap); code != http.StatusOK || out["accepted"] != float64(1) {
		t.Errorf("a record at the cap: status %d %v, want 200 accepted 1", code, out)
	}
	if got := srv.Engine().Count(); got != wire.MaxEventCount {
		t.Errorf("engine count = %d, want %d", got, wire.MaxEventCount)
	}
}

func TestSelfJoinAndTotal(t *testing.T) {
	srv := testServer(t)
	for i := 1; i <= 100; i++ {
		add(t, srv, fmt.Sprintf("k%d", i%4), i, 1)
	}
	_, sj := doJSON(t, srv, "GET", "/v1/query?selfJoin=1", "")
	if v := sj["selfJoin"].(float64); v < 2000 || v > 4000 {
		t.Errorf("selfJoin = %v, want ≈2500 (4 keys × 25²)", v)
	}
	_, tot := doJSON(t, srv, "GET", "/v1/query?total=1", "")
	if v := tot["total"].(float64); v < 90 || v > 120 {
		t.Errorf("total = %v, want ≈100", v)
	}
}

func TestStats(t *testing.T) {
	srv := testServer(t)
	add(t, srv, "a", 5, 1)
	code, out := doJSON(t, srv, "GET", "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if out["count"].(float64) != 1 || out["now"].(float64) != 5 {
		t.Errorf("stats = %v", out)
	}
	if out["width"].(float64) <= 0 || out["memoryBytes"].(float64) <= 0 {
		t.Errorf("degenerate stats: %v", out)
	}
}

func TestSketchPullAndMerge(t *testing.T) {
	// Two "sites" with identical config; the coordinator pulls both wire
	// sketches and merges them.
	siteA := testServer(t)
	siteB := testServer(t)
	for i := 1; i <= 30; i++ {
		add(t, siteA, "x", i, 1)
		add(t, siteB, "x", i, 1)
	}
	pull := func(s *Server) []byte {
		req := httptest.NewRequest("GET", "/v1/snapshot", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("sketch pull returned %d", rec.Code)
		}
		return rec.Body.Bytes()
	}
	a, err := ecmsketch.Unmarshal(pull(siteA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ecmsketch.Unmarshal(pull(siteB))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ecmsketch.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est := m.EstimateString("x", 10000); est < 50 || est > 70 {
		t.Errorf("merged estimate = %v, want ≈60", est)
	}
}

func TestAdvanceExpiresWindow(t *testing.T) {
	srv := testServer(t)
	add(t, srv, "old", 10, 1)
	doJSON(t, srv, "POST", "/v1/advance?t=50000", "")
	if est := estimate(t, srv, "key=old"); est != 0 {
		t.Errorf("estimate after expiry = %v, want 0", est)
	}
	code, _ := doJSON(t, srv, "POST", "/v1/advance", "")
	if code != http.StatusBadRequest {
		t.Errorf("advance without t returned %d", code)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 200; i++ {
				if i%10 == 0 {
					doJSON(t, srv, "GET", "/v1/query?key=hot&direct=1", "")
				} else {
					add(t, srv, "hot", i, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	_, out := doJSON(t, srv, "GET", "/v1/stats", "")
	if c := out["count"].(float64); c != 8*180 {
		t.Errorf("count = %v, want %d", c, 8*180)
	}
}

func TestParseAlgo(t *testing.T) {
	for in, want := range map[string]ecmsketch.Algorithm{
		"": ecmsketch.AlgoEH, "eh": ecmsketch.AlgoEH, "EH": ecmsketch.AlgoEH,
		"dw": ecmsketch.AlgoDW, "rw": ecmsketch.AlgoRW,
	} {
		got, err := ParseAlgo(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgo(%q) = %v, %v", in, got, err)
		}
	}
}

func TestIntervalEndpoint(t *testing.T) {
	srv := testServer(t)
	for i := 1; i <= 100; i++ {
		add(t, srv, "x", i, 1)
	}
	_, out := doJSON(t, srv, "GET", "/v1/interval?key=x&from=20&to=70", "")
	if est := out["estimate"].(float64); est < 35 || est > 65 {
		t.Errorf("interval estimate = %v, want ≈50", est)
	}
	code, _ := doJSON(t, srv, "GET", "/v1/interval?key=x&from=20", "")
	if code != http.StatusBadRequest {
		t.Errorf("interval without to returned %d", code)
	}
	code, _ = doJSON(t, srv, "GET", "/v1/interval?from=1&to=2", "")
	if code != http.StatusBadRequest {
		t.Errorf("interval without key returned %d", code)
	}
}

func TestTopKEndpoint(t *testing.T) {
	srv, err := New(Config{
		Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, TopK: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		add(t, srv, "hot", i, 1)
		if i%3 == 0 {
			add(t, srv, "warm", i, 1)
		}
		if i%10 == 0 {
			add(t, srv, "cold", i, 1)
		}
	}
	code, out := doJSON(t, srv, "GET", "/v1/topk", "")
	if code != http.StatusOK {
		t.Fatalf("/topk returned %d", code)
	}
	top := out["top"].([]any)
	if len(top) != 2 {
		t.Fatalf("top has %d entries, want 2", len(top))
	}
	first := top[0].(map[string]any)
	if want := fmt.Sprintf("%d", ecmsketch.KeyString("hot")); first["key"].(string) != want {
		t.Errorf("rank 1 is %v, want digest of \"hot\" (%s)", first["key"], want)
	}
	if est := first["estimate"].(float64); est < 55 {
		t.Errorf("rank 1 estimate %v, want ≈60", est)
	}
	// Without -topk, the endpoint does not exist.
	plain := testServer(t)
	code, _ = doJSON(t, plain, "GET", "/v1/topk", "")
	if code == http.StatusOK {
		t.Error("/topk served without TopK configured")
	}
}

// TestVersionedRoutes checks every endpoint answers under the /v1 prefix
// and only there: the API has no unversioned paths.
func TestVersionedRoutes(t *testing.T) {
	srv := testServer(t)
	for i := 1; i <= 20; i++ {
		if code := add(t, srv, "/home", i, 1); code != http.StatusOK {
			t.Fatalf("/v1/events returned %d", code)
		}
	}
	for _, tc := range []struct{ method, url string }{
		{"POST", "/events"}, {"POST", "/batch"}, {"POST", "/advance?t=30"},
		{"GET", "/query?key=/home"}, {"GET", "/interval?key=/home&from=1&to=9"},
		{"GET", "/stats"}, {"GET", "/snapshot"},
		// One spelling per capability: these second ones are not routes.
		{"POST", "/v1/add?key=/home&t=21"}, {"GET", "/v1/estimate?key=/home"},
		{"GET", "/v1/selfjoin"}, {"GET", "/v1/total"}, {"GET", "/v1/sketch"},
	} {
		if code, _ := doJSON(t, srv, tc.method, tc.url, ""); code != http.StatusNotFound {
			t.Errorf("%s %s returned %d, want 404", tc.method, tc.url, code)
		}
	}
	_, stats := doJSON(t, srv, "GET", "/v1/stats", "")
	if stats["apiVersion"] != "v1" || stats["shards"].(float64) < 1 {
		t.Errorf("stats = %v", stats)
	}
	for _, url := range []string{"/v1/query?selfJoin=1", "/v1/query?total=1", "/v1/interval?key=/home&from=1&to=9"} {
		code, _ := doJSON(t, srv, "GET", url, "")
		if code != http.StatusOK {
			t.Errorf("GET %s returned %d", url, code)
		}
	}
}

// TestEventsEndpoint covers the JSON batch route, only present under /v1.
func TestEventsEndpoint(t *testing.T) {
	srv := testServer(t)
	body := `[{"key":"/home","t":1},{"key":"/home","t":2,"n":4},{"ikey":"42","t":3}]`
	code, out := doJSON(t, srv, "POST", "/v1/events", body)
	if code != http.StatusOK {
		t.Fatalf("/v1/events returned %d: %v", code, out)
	}
	if out["accepted"].(float64) != 3 {
		t.Errorf("accepted = %v, want 3", out["accepted"])
	}
	if v := estimate(t, srv, "key=/home"); v < 5 {
		t.Errorf("/home estimate = %v, want ≥5", v)
	}
	if v := estimate(t, srv, "ikey=42"); v < 1 {
		t.Errorf("ikey 42 estimate = %v, want ≥1", v)
	}
	for _, bad := range []string{
		`not json`,
		`[{"t":5}]`,              // no key
		`[{"key":"x"}]`,          // no t
		`[{"ikey":"zzz","t":1}]`, // bad ikey
	} {
		code, _ := doJSON(t, srv, "POST", "/v1/events", bad)
		if code != http.StatusBadRequest {
			t.Errorf("body %q returned %d, want 400", bad, code)
		}
	}
	// The route exists only under the version prefix.
	code, _ = doJSON(t, srv, "POST", "/events", `[]`)
	if code == http.StatusOK {
		t.Error("/events served without version prefix")
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	code, out := doJSON(t, srv, "POST", "/v1/events",
		`[{"key":"/home","t":1,"n":6},{"key":"/cart","t":2,"n":3},{"ikey":"42","t":3}]`)
	if code != http.StatusOK {
		t.Fatalf("seeding events returned %d: %v", code, out)
	}

	// Happy path: string and integer keys, aggregates, explicit range.
	code, out = doJSON(t, srv, "POST", "/v1/query",
		`{"keys":[{"key":"/home"},{"key":"/cart"},{"ikey":"42"}],"range":10000,"total":true,"selfJoin":true}`)
	if code != http.StatusOK {
		t.Fatalf("/v1/query returned %d: %v", code, out)
	}
	ests, ok := out["estimates"].([]any)
	if !ok || len(ests) != 3 {
		t.Fatalf("estimates = %v, want 3 entries", out["estimates"])
	}
	if v := ests[0].(float64); v < 6 {
		t.Errorf("/home estimate = %v, want ≥6", v)
	}
	if v := ests[2].(float64); v < 1 {
		t.Errorf("ikey 42 estimate = %v, want ≥1", v)
	}
	if v := out["total"].(float64); v < 9 {
		t.Errorf("total = %v, want ≥9", v)
	}
	if _, ok := out["selfJoin"].(float64); !ok {
		t.Errorf("selfJoin missing from reply: %v", out)
	}
	if v := out["now"].(float64); v != 3 {
		t.Errorf("now = %v, want 3", v)
	}

	// Batch answers must exactly match the engine's own consistent cut.
	res, err := srv.Engine().QueryBatch(ecmsketch.QueryBatch{
		Keys: []uint64{ecmsketch.KeyString("/home")}, Range: 10000, Total: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, out = doJSON(t, srv, "POST", "/v1/query", `{"keys":[{"key":"/home"}],"range":10000,"total":true}`)
	if code != http.StatusOK {
		t.Fatalf("/v1/query returned %d: %v", code, out)
	}
	if got := out["estimates"].([]any)[0].(float64); got != res.Estimates[0] {
		t.Errorf("wire estimate %v != engine estimate %v", got, res.Estimates[0])
	}
	if got := out["total"].(float64); got != res.Total {
		t.Errorf("wire total %v != engine total %v", got, res.Total)
	}
	// An unrequested aggregate is omitted from the reply, not zero-filled.
	if _, present := out["selfJoin"]; present {
		t.Errorf("selfJoin present though not requested: %v", out)
	}

	// Aggregate-only query: an empty keys array is legal and estimates is
	// still an array.
	code, out = doJSON(t, srv, "POST", "/v1/query", `{"total":true}`)
	if code != http.StatusOK {
		t.Fatalf("aggregate-only query returned %d: %v", code, out)
	}
	if _, ok := out["estimates"].([]any); !ok {
		t.Errorf("aggregate-only reply estimates = %v, want []", out["estimates"])
	}

	// Malformed bodies are rejected with 400.
	for _, bad := range []string{
		`not json`,
		`[]`,                        // array, not object
		`{"keys":[{}]}`,             // key entry without key or ikey
		`{"keys":[{"ikey":"zzz"}]}`, // bad ikey
		`{"keys":{"key":"/home"}}`,  // keys not an array
		`{"range":"soon"}`,          // bad range type
		`{"bogus":1}`,               // unknown field
		`{"keys":[{"key":"/home"}]`, // truncated body
		`{"keys":[{"ikey":"1"}],"keys":[{"ikey":"2"}]}`, // duplicate field (cap evasion)
		`{"range":100,"range":200}`,                     // duplicate scalar
	} {
		code, _ := doJSON(t, srv, "POST", "/v1/query", bad)
		if code != http.StatusBadRequest {
			t.Errorf("body %q returned %d, want 400", bad, code)
		}
	}

	// Oversized batches are rejected without buffering the tail.
	var big strings.Builder
	big.WriteString(`{"keys":[`)
	for i := 0; i <= 4096; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, `{"ikey":"%d"}`, i)
	}
	big.WriteString(`]}`)
	code, out = doJSON(t, srv, "POST", "/v1/query", big.String())
	if code != http.StatusBadRequest {
		t.Errorf("oversized batch returned %d, want 400", code)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "too many keys") {
		t.Errorf("oversized batch error = %q, want a too-many-keys rejection", msg)
	}

	// The route exists only under the version prefix.
	code, _ = doJSON(t, srv, "POST", "/query", `{"total":true}`)
	if code == http.StatusOK {
		t.Error("/query served without version prefix")
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	srv := testServer(t)
	add(t, srv, "alpha", 100, 7)

	req := httptest.NewRequest("GET", "/v1/snapshot", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /v1/snapshot: %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("Content-Type = %q", got)
	}
	if rec.Header().Get("X-Ecm-Now") != "100" || rec.Header().Get("X-Ecm-Count") != "7" {
		t.Errorf("staleness headers = now %q count %q, want 100/7",
			rec.Header().Get("X-Ecm-Now"), rec.Header().Get("X-Ecm-Count"))
	}
	sk, err := ecmsketch.Unmarshal(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("snapshot payload does not decode: %v", err)
	}
	if sk.Count() != 7 {
		t.Errorf("decoded count = %d, want 7", sk.Count())
	}

	// The payload is the engine's own encoding.
	if !bytes.Equal(rec.Body.Bytes(), srv.Engine().Marshal()) {
		t.Error("/v1/snapshot payload differs from Engine().Marshal()")
	}

	// The route exists only under the version prefix.
	req3 := httptest.NewRequest("GET", "/snapshot", nil)
	rec3 := httptest.NewRecorder()
	srv.ServeHTTP(rec3, req3)
	if rec3.Code != 404 {
		t.Errorf("GET /snapshot = %d, want 404", rec3.Code)
	}
}

func TestStatsStringsOptIn(t *testing.T) {
	srv := testServer(t)
	// A tick past 2^53 would be silently rounded by float64 JSON readers;
	// the strings=1 reply preserves it digit-for-digit.
	bigTick := uint64(1)<<60 + 3
	srv.Engine().Add(1, bigTick)

	code, stats := doJSON(t, srv, "GET", "/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if _, ok := stats["now"].(float64); !ok {
		t.Errorf("default stats now = %T, want JSON number", stats["now"])
	}

	code, stats = doJSON(t, srv, "GET", "/v1/stats?strings=1", "")
	if code != 200 {
		t.Fatalf("stats?strings=1: %d", code)
	}
	if got, ok := stats["now"].(string); !ok || got != strconv.FormatUint(bigTick, 10) {
		t.Errorf("strings=1 now = %#v, want %q", stats["now"], strconv.FormatUint(bigTick, 10))
	}
	if got, ok := stats["count"].(string); !ok || got != "1" {
		t.Errorf("strings=1 count = %#v, want \"1\"", stats["count"])
	}
	if _, ok := stats["window"].(string); !ok {
		t.Errorf("strings=1 window = %T, want string", stats["window"])
	}
	if _, ok := stats["viewRebuilds"].(string); !ok {
		t.Errorf("strings=1 viewRebuilds = %T, want string", stats["viewRebuilds"])
	}
	// Non-64-bit fields stay numeric.
	if _, ok := stats["shards"].(float64); !ok {
		t.Errorf("strings=1 shards = %T, want JSON number", stats["shards"])
	}
}

func TestQueryStringsOptIn(t *testing.T) {
	srv := testServer(t)
	bigTick := uint64(1)<<60 + 3
	srv.Engine().Add(42, bigTick)

	body := `{"keys":[{"ikey":"42"}],"range":5000,"total":true}`
	code, out := doJSON(t, srv, "POST", "/v1/query?strings=1", body)
	if code != 200 {
		t.Fatalf("query?strings=1: %d (%v)", code, out)
	}
	if got, ok := out["now"].(string); !ok || got != strconv.FormatUint(bigTick, 10) {
		t.Errorf("strings=1 query now = %#v, want %q", out["now"], strconv.FormatUint(bigTick, 10))
	}
	if got, ok := out["range"].(string); !ok || got != "5000" {
		t.Errorf("strings=1 query range = %#v, want \"5000\"", out["range"])
	}
	if ests, ok := out["estimates"].([]any); !ok || len(ests) != 1 {
		t.Errorf("strings=1 query estimates = %#v", out["estimates"])
	}

	// Default replies stay numeric.
	code, out = doJSON(t, srv, "POST", "/v1/query", body)
	if code != 200 {
		t.Fatalf("query: %d", code)
	}
	if _, ok := out["now"].(float64); !ok {
		t.Errorf("default query now = %T, want JSON number", out["now"])
	}
}
