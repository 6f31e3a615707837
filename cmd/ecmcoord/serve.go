package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ecmsketch"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/wire"
)

// coordServer is the running coordinator: an ecmserver over the
// coordinator's merged view — the same read-only /v1 surface a site serves,
// snapshot and delta routes included, so a running coordinator is itself a
// valid pull target and coordinators compose into the multi-level
// hierarchies of Section 5.1 — plus what only a coordinator has: the
// refresh loop that re-pulls the sites and patches the root, the membership
// routes, its block of /v1/stats, and root/membership persistence.
type coordServer struct {
	co       *ecmsketch.Coordinator
	srv      *ecmserver.Server
	interval time.Duration

	// siteClient and siteToken build the HTTP sites behind dynamic
	// registrations (POST /v1/sites), matching the statically configured
	// pulls.
	siteClient *http.Client
	siteToken  string

	// store, when non-nil, persists the merged root (with its
	// delta-serving epoch and version vector) and the dynamic membership
	// across restarts; see persist.go. persistIvl rate-limits root saves;
	// lastPersist is guarded by refreshMu like the saves themselves.
	store       ecmsketch.DurableStore
	persistIvl  time.Duration
	lastPersist time.Time

	// refreshMu serializes refresh calls (the ticker loop and POST
	// /v1/refresh), so the standing-query registry sees views in pull order.
	refreshMu sync.Mutex

	pulls    atomic.Uint64
	pullErrs atomic.Uint64
	lastErr  atomic.Pointer[string]
	pulledAt atomic.Int64 // unix ms of the last successful round; 0 = none

	stop     chan struct{}
	stopOnce sync.Once
}

// newCoordServer wraps co in the shared serving surface, configured by cfg
// (AuthToken, EnableProfiling). The coordinator always pulls deltas and
// tracks site health.
func newCoordServer(co *ecmsketch.Coordinator, interval time.Duration, cfg ecmserver.Config) (*coordServer, error) {
	co.SetDeltaPulls(true)
	co.SetResilient(true)
	cs := &coordServer{co: co, interval: interval, stop: make(chan struct{})}
	srv, err := ecmserver.NewOver(cfg, co, cs.stats)
	if err != nil {
		return nil, err
	}
	cs.srv = srv
	srv.Handle("POST /v1/refresh", cs.handleRefresh)
	srv.Handle("GET /v1/sites", cs.handleSitesGet)
	srv.Handle("POST /v1/sites", cs.handleSitesAdd)
	srv.Handle("DELETE /v1/sites", cs.handleSitesRemove)
	return cs, nil
}

func (cs *coordServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { cs.srv.ServeHTTP(w, r) }

// refresh pulls the sites once and patches the merged root from the cells
// the delta pulls replaced; on failure the previous view keeps serving (the
// error is recorded) — a flaky site degrades freshness, never availability.
func (cs *coordServer) refresh() error {
	cs.refreshMu.Lock()
	defer cs.refreshMu.Unlock()
	err := cs.co.Refresh()
	var root *ecmsketch.Sketch
	if err == nil {
		// Publish the round's frozen view here, so no reader pays for it.
		root, err = cs.co.View()
	}
	if err != nil {
		cs.pullErrs.Add(1)
		msg := err.Error()
		cs.lastErr.Store(&msg)
		return err
	}
	cs.pulls.Add(1)
	cs.lastErr.Store(nil)
	cs.pulledAt.Store(time.Now().UnixMilli())
	// Swap the standing-query evaluator onto the fresh view and re-check
	// only the predicates whose cells the pulls replaced (delta pulls feed
	// cell-granular change sets; full pulls mark everything changed). The
	// window and advance policy come from the view itself, not flags.
	reg := cs.srv.Standing()
	reg.SetWindow(root.Params().WindowLength)
	reg.SetStrictAdvance(root.Params().Algorithm == ecmsketch.AlgoRW)
	cells, all := cs.co.TakeChangedCells()
	reg.RefreshTarget(root, cells, all)
	cs.maybePersistRoot()
	return nil
}

// run re-pulls on the configured interval until Close. A non-positive
// interval (tests construct the server without a loop) is clamped so a
// stray run call cannot panic the ticker.
func (cs *coordServer) run() {
	interval := cs.interval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-cs.stop:
			return
		case <-t.C:
			if err := cs.refresh(); err != nil {
				log.Printf("ecmcoord: pull failed (serving previous view): %v", err)
			}
		}
	}
}

// Close stops the re-pull loop (a no-op if it was never started).
// Idempotent; in-flight refreshes finish on their own.
func (cs *coordServer) Close() {
	cs.stopOnce.Do(func() { close(cs.stop) })
}

// runServe is what main ends in: one synchronous pull so the
// surface is warm, then the loop, then the listener (TLS when certFile and
// keyFile are set).
func runServe(cs *coordServer, addr, certFile, keyFile string) {
	if err := cs.refresh(); err != nil {
		// Sites may simply not be up yet; the loop keeps retrying.
		log.Printf("ecmcoord: initial pull failed (will retry every %v): %v", cs.interval, err)
	}
	go cs.run()
	if cs.store != nil {
		// A clean shutdown saves the freshest root so the restart resumes
		// serving deltas from it; an unclean death just restores the last
		// interval save and re-pulls the difference.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			cs.persistRootNow()
			os.Exit(0)
		}()
	}
	log.Printf("ecmcoord serving merged view of %d sites on %s (re-pull every %v)",
		len(cs.co.Sites()), addr, cs.interval)
	log.Fatal(cs.srv.ListenAndServe(addr, certFile, keyFile))
}

// stats is the coordinator's block of /v1/stats: site count, merged
// clock/count, pull and network accounting, and the last round's
// provenance. ?strings=1 encodes the 64-bit tick/count fields as decimal
// strings, as on every tier.
func (cs *coordServer) stats(asStrings bool) map[string]any {
	u64 := func(v uint64) any { return wire.U64Field(asStrings, v) }
	lr := cs.co.LastRefresh()
	out := map[string]any{
		"role":        "coordinator",
		"sites":       len(cs.co.Sites()),
		"pulls":       u64(cs.pulls.Load()),
		"pullErrors":  u64(cs.pullErrs.Load()),
		"netBytes":    u64(uint64(cs.co.Network().Bytes())),
		"netMessages": u64(uint64(cs.co.Network().Messages())),
		"pulledBytes": u64(uint64(cs.co.PulledBytes())),
		"deltaPulls":  u64(cs.co.DeltaPulls()),
		"fullPulls":   u64(cs.co.FullPulls()),
		"lastRefresh": map[string]any{
			"round":        u64(lr.Round),
			"contributors": lr.Contributors,
			"stale":        lr.Stale,
			"excluded":     lr.Excluded,
			"pulledBytes":  u64(uint64(lr.PulledBytes)),
			"changedCells": lr.ChangedCells,
			"rebuiltAll":   lr.RebuiltAll,
			// The root patch's wall time and the worker-pool size its cell
			// replay fanned across (1 = sequential): the effective
			// parallelism of the merge step, per round.
			"merge_ns": u64(uint64(lr.MergeNs)),
			"workers":  lr.Workers,
		},
	}
	dur := map[string]any{"enabled": cs.store != nil}
	if cs.store != nil {
		cs.refreshMu.Lock()
		last := cs.lastPersist
		cs.refreshMu.Unlock()
		if !last.IsZero() {
			dur["lastPersistUnixMs"] = u64(uint64(last.UnixMilli()))
		}
	}
	out["durability"] = dur
	if e := cs.lastErr.Load(); e != nil {
		out["lastError"] = *e
	}
	if v, err := cs.co.View(); err == nil {
		out["now"] = u64(v.Now())
		out["count"] = u64(v.Count())
		out["window"] = u64(v.Params().WindowLength)
	}
	if at := cs.pulledAt.Load(); at != 0 {
		out["pulledAtUnixMs"] = u64(uint64(at))
	}
	return out
}

// handleSitesGet reports the membership with per-site health: consecutive
// failures, backoff rounds left before the next probe, and whether a
// retained baseline lets the site keep contributing while unreachable.
func (cs *coordServer) handleSitesGet(w http.ResponseWriter, r *http.Request) {
	statuses := cs.co.SiteStatuses()
	sites := make([]map[string]any, len(statuses))
	for i, st := range statuses {
		e := map[string]any{
			"name":          st.Name,
			"healthy":       st.Healthy,
			"failures":      st.Failures,
			"backoffRounds": st.BackoffRounds,
			"hasBaseline":   st.HasBaseline,
		}
		if st.LastError != "" {
			e["lastError"] = st.LastError
		}
		sites[i] = e
	}
	wire.Respond(w, map[string]any{"sites": sites})
}

// handleSitesAdd registers a site at runtime: POST /v1/sites with
// {"url": "http://host:port"} (optional "name" for a stable identity across
// re-registrations at new addresses). The site joins the next pull round;
// re-registering an existing name replaces the member and re-bootstraps it
// from a full baseline.
func (cs *coordServer) handleSitesAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL  string `json:"url"`
		Name string `json:"name"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		wire.Error(w, http.StatusBadRequest, fmt.Errorf("bad site registration: %v", err))
		return
	}
	if req.URL == "" {
		wire.Error(w, http.StatusBadRequest, errors.New("site registration requires a url"))
		return
	}
	if _, err := url.ParseRequestURI(req.URL); err != nil {
		wire.Error(w, http.StatusBadRequest, fmt.Errorf("bad site url: %v", err))
		return
	}
	site := ecmsketch.NewHTTPSiteWithAuth(req.URL, cs.siteClient, cs.siteToken)
	if req.Name != "" {
		site.(interface{ SetName(string) }).SetName(req.Name)
	}
	cs.co.AddSite(site)
	cs.persistSites()
	wire.Respond(w, map[string]any{"ok": true, "sites": len(cs.co.Sites())})
}

// handleSitesRemove drops the member named by ?name= (the site's base URL
// unless it registered under an explicit name). The next refresh rebuilds
// the merged view without its contribution.
func (cs *coordServer) handleSitesRemove(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		wire.Error(w, http.StatusBadRequest, errors.New("?name= is required"))
		return
	}
	if !cs.co.RemoveSite(name) {
		wire.Error(w, http.StatusNotFound, fmt.Errorf("no site named %s", name))
		return
	}
	cs.persistSites()
	wire.Respond(w, map[string]any{"ok": true, "sites": len(cs.co.Sites())})
}

// handleRefresh forces an immediate re-pull: POST /v1/refresh. Deployments
// use it after known site catch-ups; tests use it for determinism.
func (cs *coordServer) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if err := cs.refresh(); err != nil {
		wire.Error(w, http.StatusBadGateway, err)
		return
	}
	wire.Respond(w, map[string]any{"ok": true, "count": cs.co.Count(), "now": cs.co.Now()})
}
