package ecmclient_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
)

// TestSnapshotSince: the client half of the delta protocol (DeltaSnapshot,
// GET /v1/snapshot?since=) — bootstrap baseline, incremental pulls,
// reconstruction identical to the full fetch.
func TestSnapshotSince(t *testing.T) {
	srv, err := ecmserver.New(ecmserver.Config{
		Epsilon: 0.1, Delta: 0.1, WindowLength: 100000, Seed: 11, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	eng := srv.Engine()
	for e := 0; e < 800; e++ {
		eng.Add(uint64(e%41), uint64(e+1))
	}

	c := ecmclient.New(ts.URL)
	var st ecmsketch.DeltaState
	payload, cur, full, err := c.DeltaSnapshot(st.Cursor())
	if err != nil || !full {
		t.Fatalf("bootstrap: full=%v err=%v", full, err)
	}
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	baselineLen := len(payload)

	eng.Add(31337, 900)
	payload, cur, full, err = c.DeltaSnapshot(st.Cursor())
	if err != nil || full {
		t.Fatalf("second pull: full=%v err=%v", full, err)
	}
	if len(payload)*4 > baselineLen {
		t.Fatalf("delta %dB not well below baseline %dB", len(payload), baselineLen)
	}
	if err := st.Apply(payload, cur, full); err != nil {
		t.Fatal(err)
	}
	got, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.FetchSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), want) {
		t.Fatal("delta reconstruction differs from a full fetch")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSinceCursorlessFull: a server that ignores ?since= and answers
// a plain full snapshot with no cursor headers (what a source without delta
// support produces) keeps DeltaSnapshot on full pulls, with a zero cursor so
// the loop keeps asking full.
func TestSnapshotSinceCursorlessFull(t *testing.T) {
	sk, err := ecmsketch.New(ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sk.Add(9, 5)
	enc := sk.Marshal()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Write(enc)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := ecmclient.New(ts.URL)
	var st ecmsketch.DeltaState
	for pull := 0; pull < 2; pull++ {
		payload, cur, full, err := c.DeltaSnapshot(st.Cursor())
		if err != nil {
			t.Fatalf("pull %d: %v", pull, err)
		}
		if !full || !cur.IsZero() {
			t.Fatalf("pull %d: a cursorless reply must read as a full pull with a zero cursor", pull)
		}
		if err := st.Apply(payload, cur, full); err != nil {
			t.Fatalf("pull %d: %v", pull, err)
		}
	}
	got, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != sk.Count() {
		t.Fatal("cursorless full pulls lost content")
	}
}
