package wire_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/wire"
)

// TestWriteFetchRoundTrip: the snapshot writer and fetcher agree — headers
// survive, and the body is the payload, identity bytes with an exact
// Content-Length, big or small.
func TestWriteFetchRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("ecm snapshot payload "), 400) // compressible
	small := []byte{0xEF, 1, 2, 3}
	for _, tc := range []struct {
		name       string
		payload    []byte
		meta       wire.SnapshotMeta
		wantCursor string
		wantKind   string
	}{
		{"big-stays-identity", big, wire.SnapshotMeta{Now: 7, Count: 9, Cursor: "abc", Kind: wire.KindFull}, "abc", "full"},
		{"small-stays-identity", small, wire.SnapshotMeta{Now: 1, Count: 2, Kind: wire.KindDelta}, "", "delta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				wire.WriteSnapshot(w, tc.payload, tc.meta)
			}))
			defer ts.Close()
			rep, err := wire.FetchSnapshot(http.DefaultClient, ts.URL, "")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rep.Payload, tc.payload) {
				t.Fatal("payload did not round-trip")
			}
			if rep.Now != tc.meta.Now || rep.Count != tc.meta.Count ||
				rep.Cursor != tc.wantCursor || rep.Kind != tc.wantKind {
				t.Fatalf("headers did not round-trip: %+v", rep)
			}
		})
	}
}

// TestFetchSnapshotNon200: a non-200 reply is an error naming the status,
// with no payload.
func TestFetchSnapshotNon200(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	rep, err := wire.FetchSnapshot(http.DefaultClient, ts.URL, "")
	if err == nil || !strings.Contains(err.Error(), "404") || rep.Payload != nil {
		t.Fatalf("got %+v, err %v; want a status-404 error", rep, err)
	}
}

// TestFetchDelta pins the one HTTP delta pull's reading of a reply: the
// request carries ?since=, a delta with a valid cursor is incremental, and
// a reply that is not a delta or whose cursor is missing or unparsable is
// full with a zero cursor.
func TestFetchDelta(t *testing.T) {
	since := core.Cursor{Epoch: 3, Vers: []uint64{1, 2}}
	next := core.Cursor{Epoch: 3, Vers: []uint64{4, 2}}
	for _, tc := range []struct {
		name     string
		meta     wire.SnapshotMeta
		wantCur  core.Cursor
		wantFull bool
	}{
		{"delta", wire.SnapshotMeta{Cursor: next.String(), Kind: wire.KindDelta}, next, false},
		{"full", wire.SnapshotMeta{Cursor: next.String(), Kind: wire.KindFull}, next, true},
		{"delta-garbage-cursor", wire.SnapshotMeta{Cursor: "!!", Kind: wire.KindDelta}, core.Cursor{}, true},
		{"delta-no-cursor", wire.SnapshotMeta{Kind: wire.KindDelta}, core.Cursor{}, true},
		{"plain", wire.SnapshotMeta{}, core.Cursor{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/snapshot" || r.URL.Query().Get("since") != since.String() {
					http.NotFound(w, r)
					return
				}
				wire.WriteSnapshot(w, []byte{0xEE, 1}, tc.meta)
			}))
			defer ts.Close()
			payload, cur, full, err := wire.FetchDelta(http.DefaultClient, ts.URL, "", since)
			if err != nil || !bytes.Equal(payload, []byte{0xEE, 1}) {
				t.Fatalf("payload %x, err %v", payload, err)
			}
			if cur.String() != tc.wantCur.String() || full != tc.wantFull {
				t.Fatalf("cursor %v full %v, want %v full %v", cur, full, tc.wantCur, tc.wantFull)
			}
		})
	}
}
