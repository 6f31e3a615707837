package ecmserver_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmserver"
)

// TestDeltaCursorSurvivesServerRestart pins the acceptance contract of the
// durable subsystem at the HTTP surface: a coordinator that pulled a
// baseline and holds a delta cursor keeps its cursor valid across a server
// restart on the same data store — the restarted server answers it with an
// incremental delta (X-Ecm-Delta: delta, not a re-baselining full), and the
// applied delta reconstructs the engine's merged state exactly.
func TestDeltaCursorSurvivesServerRestart(t *testing.T) {
	for _, clean := range []bool{true, false} {
		t.Run(map[bool]string{true: "clean_shutdown", false: "crash"}[clean], func(t *testing.T) {
			store := ecmsketch.NewMemStore()
			cfg := ecmserver.Config{
				Epsilon: 0.1, Delta: 0.1, WindowLength: 1 << 62, Seed: 3, Shards: 4,
				DurableStore: store,
			}
			srv1, err := ecmserver.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(srv1)

			ingest := func(ts *httptest.Server, events string) {
				t.Helper()
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(events))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("events status %d", resp.StatusCode)
				}
			}
			ingest(ts1, `[{"key":"alpha","t":100},{"key":"beta","t":101},{"key":"alpha","t":102,"n":3},{"key":"gamma","t":103}]`)

			// The coordinator-side puller: baseline once, then deltas.
			var st ecmsketch.DeltaState
			pull := func(ts *httptest.Server, wantKind string) {
				t.Helper()
				resp, body := getRaw(t, ts.URL+"/v1/snapshot?since="+st.Cursor().String())
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("snapshot status %d", resp.StatusCode)
				}
				if kind := resp.Header.Get("X-Ecm-Delta"); kind != wantKind {
					t.Fatalf("kind %q, want %q", kind, wantKind)
				}
				cur, err := ecmsketch.ParseCursor(resp.Header.Get("X-Ecm-Cursor"))
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Apply(body, cur, wantKind == "full"); err != nil {
					t.Fatalf("apply %s: %v", wantKind, err)
				}
			}
			pull(ts1, "full")
			ingest(ts1, `[{"key":"delta-key","t":200},{"key":"alpha","t":201}]`)
			pull(ts1, "delta")

			// More arrivals the held cursor has not seen, then the restart.
			ingest(ts1, `[{"key":"post-cursor","t":300},{"key":"beta","t":301,"n":2}]`)
			epoch := srv1.Engine().DurabilityStats().Epoch
			ts1.Close()
			if clean {
				if err := srv1.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				srv1.Engine().Flush() // the durability barrier; then crash
				srv1.Engine().CloseAbrupt()
			}

			srv2, err := ecmserver.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()

			// /v1/stats reports the durability block with the same epoch.
			_, statsBody := getRaw(t, ts2.URL+"/v1/stats")
			var stats struct {
				Durability struct {
					Enabled   bool    `json:"enabled"`
					Epoch     float64 `json:"epoch"`
					Recovered bool    `json:"recovered"`
				} `json:"durability"`
			}
			if err := json.Unmarshal(statsBody, &stats); err != nil {
				t.Fatal(err)
			}
			if !stats.Durability.Enabled || !stats.Durability.Recovered {
				t.Fatalf("stats durability block: %+v", stats.Durability)
			}
			if got := srv2.Engine().DurabilityStats().Epoch; got != epoch {
				t.Fatalf("epoch across restart: %x want %x", got, epoch)
			}

			// The pre-restart cursor is honored with a delta, and the
			// reconstruction matches the engine's merged state exactly.
			pull(ts2, "delta")
			got, err := st.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			_, legacy := getRaw(t, ts2.URL+"/v1/snapshot")
			if !bytes.Equal(got.Marshal(), legacy) {
				t.Fatal("post-restart delta reconstruction differs from the merged snapshot")
			}

			// And the restarted server keeps ingesting + serving deltas.
			ingest(ts2, `[{"key":"after-restart","t":400}]`)
			pull(ts2, "delta")
		})
	}
}

// TestServerDataDir exercises the DataDir spelling of durability (the
// cmd/ecmserve flag path): state persists under the directory and a second
// server over the same directory recovers it.
func TestServerDataDir(t *testing.T) {
	dir := t.TempDir()
	cfg := ecmserver.Config{
		Epsilon: 0.1, Delta: 0.1, WindowLength: 1 << 62, Seed: 3, Shards: 2,
		DataDir: dir,
	}
	srv1, err := ecmserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Engine().Add(ecmsketch.KeyString("persisted"), 100)
	count := srv1.Engine().Count()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := ecmserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !srv2.Engine().DurabilityStats().Recovered {
		t.Fatal("DataDir restart did not recover")
	}
	if got := srv2.Engine().Count(); got != count {
		t.Fatalf("recovered count %d, want %d", got, count)
	}
	if est := srv2.Engine().Estimate(ecmsketch.KeyString("persisted"), 1<<62); est < 1 {
		t.Fatalf("recovered estimate %v, want >= 1", est)
	}
}
