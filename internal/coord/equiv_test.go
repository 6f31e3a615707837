package coord_test

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ecmsketch"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
)

// refreshView runs one Refresh round and returns the merged view.
func refreshView(co *coord.Coordinator) (*core.Sketch, error) {
	if err := co.Refresh(); err != nil {
		return nil, err
	}
	return co.View()
}

// serverEngine recovers the engine behind a site's httptest server. The
// servers in this file are built locally, so the underlying *ecmserver.
// Server is reachable through the handler.
var serverEngines = map[*httptest.Server]*ecmsketch.Sharded{}
var serverEnginesMu sync.Mutex

func serverEngine(t *testing.T, ts *httptest.Server) *ecmsketch.Sharded {
	t.Helper()
	serverEnginesMu.Lock()
	defer serverEnginesMu.Unlock()
	if eng, ok := serverEngines[ts]; ok {
		return eng
	}
	srv, ok := ts.Config.Handler.(*ecmserver.Server)
	if !ok {
		t.Fatalf("test server handler is %T, want *ecmserver.Server", ts.Config.Handler)
	}
	serverEngines[ts] = srv.Engine()
	return srv.Engine()
}

// TestNetworkedCoordinatorPullLoop is the race-enabled loop test: two
// ecmserver sites keep ingesting from writer goroutines while a coordinator
// pulls and merges them over HTTP in a tight loop. Run under -race (as CI
// does for the whole suite) this pins that snapshot serving, view rebuilds
// and coordinator merging share no unsynchronized state; the assertions pin
// that every pull sees a non-regressing stream.
//
// The sites here are built separately from newSiteServers, with a short
// window and fast-advancing writer ticks, so the live window slides during
// the loop and per-pull merge cost plateaus instead of growing with the
// accumulated stream.
func TestNetworkedCoordinatorPullLoop(t *testing.T) {
	servers := make([]*httptest.Server, 2)
	for i := range servers {
		srv, err := ecmserver.New(ecmserver.Config{
			Epsilon: 0.15, Delta: 0.1, WindowLength: 2000, Seed: 42, Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		servers[i] = ts
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, ts := range servers {
		eng := serverEngine(t, ts)
		wg.Add(1)
		go func(i int, eng *ecmsketch.Sharded) {
			defer wg.Done()
			tick := uint64(0)
			batch := make([]ecmsketch.Event, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tick += 8 // stride past the window length so old mass expires
				for j := range batch {
					batch[j] = ecmsketch.Event{Key: uint64(j + i*64), Tick: tick}
				}
				eng.AddBatch(batch)
				// Throttle: contention with the sites' strict-freshness view
				// rebuilds is the point, saturating one core is not.
				time.Sleep(100 * time.Microsecond)
			}
		}(i, eng)
	}

	co := coord.New(
		coord.NewHTTPSite(servers[0].URL, nil),
		coord.NewHTTPSite(servers[1].URL, nil),
	)
	pulls := 8
	if testing.Short() {
		pulls = 3
	}
	var lastCount uint64
	var lastNow uint64
	deadline := time.Now().Add(30 * time.Second)
	for p := 0; p < pulls && time.Now().Before(deadline); p++ {
		root, err := refreshView(co)
		if err != nil {
			t.Fatalf("pull %d: %v", p, err)
		}
		if root.Count() < lastCount {
			t.Fatalf("pull %d: merged count regressed %d → %d", p, lastCount, root.Count())
		}
		if root.Now() < lastNow {
			t.Fatalf("pull %d: merged clock regressed %d → %d", p, lastNow, root.Now())
		}
		lastCount, lastNow = root.Count(), root.Now()
	}
	close(stop)
	wg.Wait()
	if lastCount == 0 {
		t.Error("no events observed across the pull loop")
	}
}
