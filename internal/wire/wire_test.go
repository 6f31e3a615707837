package wire_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
