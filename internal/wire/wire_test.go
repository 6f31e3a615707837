package wire_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/wire"
)

// TestWriteFetchRoundTrip: the snapshot writer and fetcher agree — headers
// survive, gzip is negotiated for big payloads and skipped for small ones,
// and Wire reports the bytes that actually crossed.
func TestWriteFetchRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("ecm snapshot payload "), 400) // compressible
	small := []byte{0xEF, 1, 2, 3}
	for _, tc := range []struct {
		name       string
		payload    []byte
		wantGzip   bool
		meta       wire.SnapshotMeta
		wantCursor string
		wantKind   string
	}{
		{"big-gzips", big, true, wire.SnapshotMeta{Now: 7, Count: 9, Cursor: "abc", Kind: wire.KindFull}, "abc", "full"},
		{"small-stays-identity", small, false, wire.SnapshotMeta{Now: 1, Count: 2, Kind: wire.KindDelta}, "", "delta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				wire.WriteSnapshot(w, r, tc.payload, tc.meta)
			}))
			defer ts.Close()
			rep, err := wire.FetchSnapshot(http.DefaultClient, ts.URL, "")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rep.Payload, tc.payload) {
				t.Fatal("payload did not round-trip")
			}
			if tc.wantGzip && rep.Wire >= len(tc.payload) {
				t.Fatalf("wire %dB not below payload %dB", rep.Wire, len(tc.payload))
			}
			if !tc.wantGzip && rep.Wire != len(tc.payload) {
				t.Fatalf("identity wire %dB != payload %dB", rep.Wire, len(tc.payload))
			}
			if rep.Now != tc.meta.Now || rep.Count != tc.meta.Count ||
				rep.Cursor != tc.wantCursor || rep.Kind != tc.wantKind {
				t.Fatalf("headers did not round-trip: %+v", rep)
			}
		})
	}
}

// TestGzipNegotiation: only genuine gzip offers compress; refusals and
// other codings stay identity.
func TestGzipNegotiation(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteSnapshot(w, r, big, wire.SnapshotMeta{})
	}))
	defer ts.Close()
	for _, tc := range []struct {
		accept   string
		wantGzip bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"deflate, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"deflate", false},
		{"", false},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
		if tc.accept != "" {
			req.Header.Set("Accept-Encoding", tc.accept)
		} else {
			req.Header.Set("Accept-Encoding", "identity")
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		gz := strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip")
		resp.Body.Close()
		if gz != tc.wantGzip {
			t.Errorf("Accept-Encoding %q: gzip=%v, want %v", tc.accept, gz, tc.wantGzip)
		}
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
				wire.WriteSnapshot(w, r, []byte{0xEE, 1}, tc.meta)
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

// TestPooledGzipMatchesFreshWriter: snapshot bodies compressed through the
// pooled writers are byte-identical to a fresh gzip.Writer's output for the
// same payload, and decompress through the pooled readers back to it —
// also after readers failed on a corrupt body — with many pulls of
// different payloads in flight at once (run it under -race).
func TestPooledGzipMatchesFreshWriter(t *testing.T) {
	payloads := make([][]byte, 8)
	for i := range payloads {
		// Distinct sizes and contents, so a writer or reader that kept state
		// from an earlier body would show.
		payloads[i] = bytes.Repeat([]byte(fmt.Sprintf("cell %d: %x ", i, i*7919)), 100+300*i)
	}
	fresh := make([][]byte, len(payloads))
	for i, p := range payloads {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(p)
		zw.Close()
		fresh[i] = buf.Bytes()
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("corrupt") {
			w.Header().Set("Content-Encoding", "gzip")
			w.Write(fresh[0][:len(fresh[0])/2]) // a truncated stream
			return
		}
		i, _ := strconv.Atoi(r.URL.Query().Get("i"))
		wire.WriteSnapshot(w, r, payloads[i], wire.SnapshotMeta{Now: uint64(i)})
	}))
	defer ts.Close()
	// Readers that failed go back to the pool; the pulls below must still
	// decode through them.
	for n := 0; n < 4; n++ {
		if _, err := wire.FetchSnapshot(http.DefaultClient, ts.URL+"/?corrupt", ""); err == nil {
			t.Fatal("a truncated gzip body decoded")
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				i := (g + n) % len(payloads)
				url := fmt.Sprintf("%s/?i=%d", ts.URL, i)
				req, _ := http.NewRequest(http.MethodGet, url, nil)
				req.Header.Set("Accept-Encoding", "gzip")
				resp, err := http.DefaultTransport.RoundTrip(req)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, fresh[i]) {
					t.Errorf("payload %d: pooled gzip body (%d B) differs from a fresh writer's (%d B)", i, len(body), len(fresh[i]))
				}
				rep, err := wire.FetchSnapshot(http.DefaultClient, url, "")
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(rep.Payload, payloads[i]) || rep.Wire != len(fresh[i]) {
					t.Errorf("payload %d: pooled gunzip gave %d B over %d wire B, want %d B over %d", i, len(rep.Payload), rep.Wire, len(payloads[i]), len(fresh[i]))
				}
			}
		}(g)
	}
	wg.Wait()
}
