package ecmclient_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
)

func startServer(t *testing.T) (*httptest.Server, *ecmclient.Client) {
	t.Helper()
	srv, err := ecmserver.New(ecmserver.Config{
		Epsilon:      0.05,
		Delta:        0.05,
		WindowLength: 10000,
		Seed:         7,
		Shards:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, ecmclient.New(ts.URL)
}

func TestClientRoundTrip(t *testing.T) {
	_, c := startServer(t)
	for i := ecmsketch.Tick(1); i <= 50; i++ {
		if err := c.AddEvents([]ecmsketch.Event{{Key: ecmsketch.KeyString("/home"), Tick: i, N: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]ecmsketch.Event, 100)
	for i := range batch {
		batch[i] = ecmsketch.Event{Key: ecmsketch.KeyString("/search"), Tick: ecmsketch.Tick(51 + i)}
	}
	if err := c.AddEvents(batch); err != nil {
		t.Fatal(err)
	}
	point, err := c.QueryDirect(ecmsketch.QueryBatch{Keys: []uint64{ecmsketch.KeyString("/home")}, Range: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if est := point.Estimates[0]; est < 45 || est > 60 {
		t.Errorf("estimate = %v, want ≈50", est)
	}
	agg, err := c.QueryBatch(ecmsketch.QueryBatch{Total: true, SelfJoin: true, Range: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Total < 135 || agg.Total > 170 {
		t.Errorf("total = %v, want ≈150", agg.Total)
	}
	st, err := c.FetchStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 150 || st.Shards != 4 || st.APIVersion != "v1" {
		t.Errorf("stats = %+v", st)
	}
	if err := c.AdvanceTo(60000); err != nil {
		t.Fatal(err)
	}
	if est := c.EstimateString("/home", 10000); est != 0 {
		t.Errorf("estimate after expiry = %v, want 0", est)
	}
	if c.Err() != nil {
		t.Errorf("sticky error set without a failure: %v", c.Err())
	}
}

// ingestQuerier is what feedAndQuery touches: writes plus point queries.
type ingestQuerier interface {
	ecmsketch.Ingestor
	ecmsketch.Querier
}

// feedAndQuery is the interface-driven pipeline of the interchangeability
// test: everything it touches is the Ingestor/Querier contract, so it runs
// identically against a plain Sketch, a Sharded engine, or a remote server.
func feedAndQuery(e ingestQuerier) (hot float64, total float64) {
	var batch []ecmsketch.Event
	var now ecmsketch.Tick
	for i := 0; i < 500; i++ {
		now++
		key := uint64(i % 7)
		if i%2 == 0 {
			key = 42 // hot key: every second arrival
		}
		batch = append(batch, ecmsketch.Event{Key: key, Tick: now})
		if len(batch) == 100 {
			e.AddBatch(batch)
			batch = batch[:0]
		}
	}
	e.AddBatch(batch)
	e.AddN(42, now, 5)
	return e.Estimate(42, 10000), e.EstimateTotal(10000)
}

// TestClientInterchangeable runs the same pipeline against a local sketch,
// a sharded engine and the remote client, and requires near-identical
// answers — the acceptance gate for "one interface, three backends".
func TestClientInterchangeable(t *testing.T) {
	p := ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 7}
	local, err := ecmsketch.New(p)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, remote := startServer(t)

	backends := map[string]ingestQuerier{
		"sketch": local, "sharded": sharded, "client": remote,
	}
	type answer struct{ hot, total float64 }
	got := map[string]answer{}
	for name, b := range backends {
		hot, total := feedAndQuery(b)
		got[name] = answer{hot, total}
	}
	if err := remote.Err(); err != nil {
		t.Fatalf("remote pipeline recorded transport error: %v", err)
	}
	ref := got["sketch"]
	if ref.hot < 250 || ref.total < 450 {
		t.Fatalf("reference answers degenerate: %+v", ref)
	}
	for name, a := range got {
		if relDiff(a.hot, ref.hot) > 0.1 || relDiff(a.total, ref.total) > 0.1 {
			t.Errorf("%s answers %+v diverge from sketch reference %+v", name, a, ref)
		}
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return a
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestClientSketchPullAndMerge(t *testing.T) {
	_, siteA := startServer(t)
	_, siteB := startServer(t)
	for i := ecmsketch.Tick(1); i <= 30; i++ {
		siteA.Add(99, i)
		siteB.Add(99, i)
	}
	a, err := siteA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := siteB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ecmsketch.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est := m.Estimate(99, 10000); est < 50 || est > 70 {
		t.Errorf("merged estimate = %v, want ≈60", est)
	}
	// InnerProduct pulls the remote sketch and runs locally.
	ip, err := siteA.InnerProduct(b, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if ip < 700 || ip > 1200 {
		t.Errorf("inner product = %v, want ≈900", ip)
	}
}

// TestClientLearnedTopK is the hot-keys recipe end to end: a top-k
// subscription with no keys learns its candidates from the keys ingest
// touches, so after the stream has run, the first notification after the next
// batch ranks the window's hottest keys.
func TestClientLearnedTopK(t *testing.T) {
	ts, c := startServer(t)
	for i := ecmsketch.Tick(1); i <= 60; i++ {
		c.AddString("hot", i)
		if i%3 == 0 {
			c.AddString("warm", i)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background(), []ecmsketch.StandingQuery{{Kind: ecmsketch.StandingTopK, K: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitWatcher(t, ts.Config.Handler.(*ecmserver.Server), 1)
	if err := c.AddEvents([]ecmsketch.Event{{Key: ecmsketch.KeyString("hot"), Tick: 61}, {Key: ecmsketch.KeyString("warm"), Tick: 61}}); err != nil {
		t.Fatal(err)
	}
	n := recvNotification(t, sub)
	if n.Kind != ecmsketch.StandingTopK || len(n.Top) != 2 ||
		n.Top[0].Key != ecmsketch.KeyString("hot") || n.Top[1].Key != ecmsketch.KeyString("warm") {
		t.Fatalf("notification %+v, want top-2 hot then warm", n)
	}
	if n.Top[0].Estimate < 55 {
		t.Errorf("hot estimate %v, want ≈61", n.Top[0].Estimate)
	}
}

// TestClientStickyError walks the rule stated on Client.Err: against a dead
// server every method of an ecmsketch interface parks its transport failure
// on the client — the ones that also return it included — and no explicit
// call does.
func TestClientStickyError(t *testing.T) {
	ts, c := startServer(t)
	other, err := ecmsketch.New(ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	q := ecmsketch.QueryBatch{Keys: []uint64{1}}
	for _, tc := range []struct {
		name string
		call func() error // the returned error, for the methods that have one
		errs bool         // the signature returns the failure too
	}{
		{"Add", func() error { c.Add(1, 1); return nil }, false},
		{"AddN", func() error { c.AddN(1, 1, 2); return nil }, false},
		{"AddString", func() error { c.AddString("a", 1); return nil }, false},
		{"AddBatch", func() error { c.AddBatch([]ecmsketch.Event{{Key: 1, Tick: 1}}); return nil }, false},
		{"Advance", func() error { c.Advance(5); return nil }, false},
		{"Estimate", func() error { c.Estimate(1, 100); return nil }, false},
		{"EstimateString", func() error { c.EstimateString("a", 100); return nil }, false},
		{"SelfJoin", func() error { c.SelfJoin(100); return nil }, false},
		{"EstimateTotal", func() error { c.EstimateTotal(100); return nil }, false},
		{"Now", func() error { c.Now(); return nil }, false},
		{"Marshal", func() error { c.Marshal(); return nil }, false},
		{"InnerProduct", func() error { _, err := c.InnerProduct(other, 100); return err }, true},
		{"QueryBatch", func() error { _, err := c.QueryBatch(q); return err }, true},
		{"QueryDirect", func() error { _, err := c.QueryDirect(q); return err }, true},
		{"Snapshot", func() error { _, err := c.Snapshot(); return err }, true},
		{"DeltaSnapshot", func() error { _, _, _, err := c.DeltaSnapshot(ecmsketch.Cursor{}); return err }, true},
	} {
		c.Reset()
		if c.Err() != nil {
			t.Fatalf("%s: Reset did not clear the sticky error", tc.name)
		}
		if err := tc.call(); tc.errs && err == nil {
			t.Errorf("%s against a dead server returned no error", tc.name)
		}
		if c.Err() == nil {
			t.Errorf("%s: transport failure not recorded", tc.name)
		}
	}
	if got := c.Estimate(1, 100); got != 0 {
		t.Errorf("estimate against dead server = %v, want 0", got)
	}
	if b := c.Marshal(); b != nil {
		t.Errorf("Marshal against dead server = %d bytes, want nil", len(b))
	}

	c.Reset()
	for name, call := range map[string]func() error{
		"AddEvents":          func() error { return c.AddEvents([]ecmsketch.Event{{Key: 1, Tick: 1}}) },
		"AdvanceTo":          func() error { return c.AdvanceTo(5) },
		"IntervalEstimate":   func() error { _, err := c.IntervalEstimate(1, 1, 5); return err },
		"FetchSnapshotBytes": func() error { _, err := c.FetchSnapshotBytes(); return err },
		"FetchStats":         func() error { _, err := c.FetchStats(); return err },
	} {
		if call() == nil {
			t.Errorf("%s against a dead server returned no error", name)
		}
		if c.Err() != nil {
			t.Errorf("%s recorded its error; explicit calls only return it", name)
		}
	}
}

// TestClientQueryBatch round-trips a batched query and checks the wire
// answers are exactly — bit for bit, surviving the JSON float encoding —
// the answers a local Sharded engine with identical configuration and
// stream produces.
func TestClientQueryBatch(t *testing.T) {
	_, c := startServer(t)
	local, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
		Params: ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 7},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	events := make([]ecmsketch.Event, 0, 3000)
	for i := 1; i <= 3000; i++ {
		events = append(events, ecmsketch.Event{Key: uint64(i % 97), Tick: ecmsketch.Tick(i)})
	}
	if err := c.AddEvents(events); err != nil {
		t.Fatal(err)
	}
	local.AddBatch(events)

	q := ecmsketch.QueryBatch{
		Keys:     []uint64{1, 5, 96, 1234},
		Range:    10000,
		Total:    true,
		SelfJoin: true,
	}
	want, err := local.QueryBatch(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.QueryBatch(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("estimates: %d entries, want %d", len(got.Estimates), len(want.Estimates))
	}
	for i := range want.Estimates {
		if got.Estimates[i] != want.Estimates[i] {
			t.Errorf("key %d: remote estimate %v != local %v", q.Keys[i], got.Estimates[i], want.Estimates[i])
		}
	}
	if got.Total != want.Total {
		t.Errorf("remote total %v != local %v", got.Total, want.Total)
	}
	if got.SelfJoin != want.SelfJoin {
		t.Errorf("remote selfJoin %v != local %v", got.SelfJoin, want.SelfJoin)
	}
	if got.Now != want.Now || got.Range != want.Range {
		t.Errorf("remote cut (now=%d, range=%d) != local (now=%d, range=%d)",
			got.Now, got.Range, want.Now, want.Range)
	}

	if c.Err() != nil {
		t.Errorf("sticky error after successful QueryBatch: %v", c.Err())
	}
}

func TestClientQueryBatchStickyError(t *testing.T) {
	ts, c := startServer(t)
	ts.Close()
	if _, err := c.QueryBatch(ecmsketch.QueryBatch{Total: true}); err == nil {
		t.Fatal("QueryBatch against dead server must error")
	}
	if c.Err() == nil {
		t.Error("QueryBatch transport failure not recorded in sticky error")
	}
}

func TestClientBadRequestSurfacesServerError(t *testing.T) {
	_, c := startServer(t)
	// Tick 0 is rejected server-side; the error body must surface.
	if err := c.AddEvents([]ecmsketch.Event{{Key: 1, Tick: 0, N: 1}}); err == nil {
		t.Fatal("server-side validation error not surfaced")
	}
}

// TestClientSnapshotRoute pins that Snapshot pulls the /v1/snapshot route
// and that the result matches the engine.
func TestClientSnapshotRoute(t *testing.T) {
	ts, client := startServer(t)
	srv := ts.Config.Handler.(*ecmserver.Server)
	srv.Engine().Add(7, 100)

	snap, err := client.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count() != 1 || snap.Now() != 100 {
		t.Errorf("snapshot count=%d now=%d, want 1/100", snap.Count(), snap.Now())
	}
}

// TestClientReusesConnection: every reply body is drained before it is
// closed, so one client keeps one keep-alive connection across ingest calls
// (whose replies it ignores) and queries (whose JSON it decodes) alike. An
// undrained AddEvents reply cost a fresh dial per call.
func TestClientReusesConnection(t *testing.T) {
	srv, err := ecmserver.New(ecmserver.Config{Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := ecmclient.New(ts.URL, ecmclient.WithHTTPClient(ts.Client()))
	for i := 0; i < 200; i++ {
		tick := ecmsketch.Tick(i + 1)
		if err := c.AddEvents([]ecmsketch.Event{{Key: uint64(i % 7), Tick: tick}, {Key: 99, Tick: tick}}); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := c.QueryBatch(ecmsketch.QueryBatch{Keys: []uint64{99}, Total: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("200 AddEvents + 50 QueryBatch opened %d connections, want 1", got)
	}
}

// TestClientAsCoordinatorSite wires a remote server into an in-process
// coordinator through the client: the Engine interfaces make a remote site
// and a local engine interchangeable members of one coordinator.
func TestClientAsCoordinatorSite(t *testing.T) {
	ts, client := startServer(t)
	srv := ts.Config.Handler.(*ecmserver.Server)
	for i := uint64(1); i <= 300; i++ {
		srv.Engine().Add(i%7, i)
	}
	local, err := ecmsketch.New(ecmsketch.Params{
		Epsilon: 0.05, Delta: 0.05, WindowLength: 10000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 300; i++ {
		local.Add(i%5+100, i)
	}
	co := ecmsketch.NewCoordinator(
		ecmsketch.NewLocalSite("remote-via-client", client),
		ecmsketch.NewLocalSite("local", local),
	)
	if err := co.Refresh(); err != nil {
		t.Fatal(err)
	}
	root, err := co.View()
	if err != nil {
		t.Fatal(err)
	}
	if root.Count() != 600 {
		t.Errorf("root count = %d, want 600", root.Count())
	}
	if co.Network().Messages() != 2 {
		t.Errorf("messages = %d, want 2", co.Network().Messages())
	}
}

// roundTripFunc is an http.RoundTripper that is just a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestAddEventsBodyMatchesJSONMarshal: the hand-appended /v1/events body is
// byte for byte what json.Marshal made of the wire struct it replaced, and it
// still reaches net/http as a replayable, length-framed body (Content-Length
// and GetBody set).
func TestAddEventsBodyMatchesJSONMarshal(t *testing.T) {
	type wireEvent struct {
		IKey string `json:"ikey"`
		T    uint64 `json:"t"`
		N    uint64 `json:"n,omitempty"`
	}
	var sent, replay []byte
	var length int64
	c := ecmclient.New("http://site.invalid", ecmclient.WithHTTPClient(&http.Client{
		Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			length = r.ContentLength
			sent, _ = io.ReadAll(r.Body)
			if r.GetBody != nil {
				again, _ := r.GetBody()
				replay, _ = io.ReadAll(again)
			}
			return &http.Response{StatusCode: 200, Body: io.NopCloser(bytes.NewReader(nil))}, nil
		}),
	}))
	rng := rand.New(rand.NewSource(5))
	edge := []uint64{0, 1, 2, 1 << 53, 1<<53 + 1, math.MaxUint64}
	for round := 0; round < 50; round++ {
		evs := make([]ecmsketch.Event, 1+rng.Intn(40))
		for i := range evs {
			evs[i] = ecmsketch.Event{Key: rng.Uint64(), Tick: 1 + rng.Uint64()>>uint(rng.Intn(64)), N: edge[rng.Intn(len(edge))]}
			if rng.Intn(4) == 0 {
				evs[i].Key = edge[rng.Intn(len(edge))]
			}
		}
		old := make([]wireEvent, len(evs))
		for i, ev := range evs {
			old[i] = wireEvent{IKey: strconv.FormatUint(ev.Key, 10), T: ev.Tick, N: ev.N}
		}
		want, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddEvents(evs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sent, want) {
			t.Fatalf("round %d: body\n%s\nwant json.Marshal's\n%s", round, sent, want)
		}
		if length != int64(len(want)) || !bytes.Equal(replay, want) {
			t.Fatalf("round %d: Content-Length %d, GetBody replayed %d bytes; want %d and the same body", round, length, len(replay), len(want))
		}
	}
}
