package ecmserver

// The coordinator tier: what a Server adds over an *ecmsketch.Coordinator
// source — the refresh loop that re-pulls the sites and patches the merged
// root, the membership routes, its block of /v1/stats, and persistence. The
// read routes are the Server's own, so a running coordinator is itself a
// valid pull target and coordinators compose into the multi-level
// hierarchies of Section 5.1.
//
// With a durable store the coordinator keeps two blobs in the same
// pluggable store the leaf engines use: the merged root with its
// delta-serving epoch and version vector ("root", via
// Coordinator.ExportState), saved after pull rounds at most once per
// Config.SnapshotInterval and once more on Close; and the HTTP membership
// ("sites", JSON name/url pairs), saved on every change. A restart restores
// both before serving, so parents holding pre-restart cursors keep
// receiving deltas and runtime registrations survive. There is no
// coordinator WAL: the sites are the log — anything a persisted root misses
// is re-pulled on the first refresh.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch"
	"ecmsketch/internal/wire"
)

const (
	coordRootBlob  = "root"
	coordSitesBlob = "sites"
)

// coordinator is the Server state only a coordinator has (see above).
type coordinator struct {
	co       *ecmsketch.Coordinator
	standing *ecmsketch.StandingRegistry

	// pullClient and siteToken build the HTTP sites behind dynamic and
	// restored registrations, matching the statically configured pulls.
	pullClient *http.Client
	siteToken  string

	// store, when non-nil, persists the merged root and the membership;
	// persistIvl rate-limits root saves (0: only on close). lastPersist is
	// the unix ms of the last root save, atomic so /v1/stats never waits on
	// refreshMu, which a pull round holds for as long as its slowest site.
	store       ecmsketch.DurableStore
	persistIvl  time.Duration
	lastPersist atomic.Int64

	// refreshMu serializes refresh calls (the ticker loop and POST
	// /v1/refresh), so the standing-query registry sees views in pull order.
	refreshMu sync.Mutex
	// sitesMu makes reading the membership and saving it one step, so a
	// slower save of an older membership cannot land after a newer one.
	sitesMu sync.Mutex

	pulls    atomic.Uint64
	pullErrs atomic.Uint64
	lastErr  atomic.Pointer[string]
	pulledAt atomic.Int64 // unix ms of the last successful round; 0 = none

	stop     chan struct{}
	stopOnce sync.Once
	loop     sync.WaitGroup
}

// newCoordinator restores whatever cfg's store holds — membership first,
// then the root, so the surface is live from the restored root before any
// pull — and, with a positive cfg.RefreshInterval, pulls once and starts
// the re-pull loop. Restore failures are logged and discarded: the
// coordinator then bootstraps from the sites as a memory-only one would.
func newCoordinator(cfg Config, co *ecmsketch.Coordinator, reg *ecmsketch.StandingRegistry) (*coordinator, error) {
	c := &coordinator{
		co:         co,
		standing:   reg,
		pullClient: cfg.PullClient,
		siteToken:  cfg.SiteToken,
		persistIvl: cfg.SnapshotInterval,
		stop:       make(chan struct{}),
	}
	store, err := cfg.store()
	if err != nil {
		return nil, err
	}
	if c.store = store; store != nil {
		c.restoreSites()
		c.restoreRoot()
	}
	if cfg.RefreshInterval > 0 {
		if err := c.refresh(); err != nil {
			// Sites may simply not be up yet; the loop keeps retrying.
			log.Printf("ecmserver: initial pull failed (will retry every %v): %v", cfg.RefreshInterval, err)
		}
		c.loop.Add(1)
		go c.run(cfg.RefreshInterval)
	}
	return c, nil
}

// refresh pulls the sites once and patches the merged root from the cells
// the delta pulls replaced; on failure the previous view keeps serving (the
// error is recorded) — a flaky site degrades freshness, never availability.
func (c *coordinator) refresh() error {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	err := c.co.Refresh()
	var root *ecmsketch.Sketch
	if err == nil {
		// Publish the round's frozen view here, so no reader pays for it.
		root, err = c.co.View()
	}
	if err != nil {
		c.pullErrs.Add(1)
		msg := err.Error()
		c.lastErr.Store(&msg)
		return err
	}
	c.pulls.Add(1)
	c.lastErr.Store(nil)
	c.pulledAt.Store(time.Now().UnixMilli())
	// Swap the standing-query evaluator onto the fresh view and re-check
	// only the predicates whose cells the pulls replaced (delta pulls feed
	// cell-granular change sets; full pulls mark everything changed). The
	// window and advance policy come from the view's own Params.
	cells, all := c.co.TakeChangedCells()
	c.standing.RefreshTarget(root, cells, all)
	if c.store != nil && c.persistIvl > 0 && time.Since(time.UnixMilli(c.lastPersist.Load())) >= c.persistIvl {
		if err := c.persistRootLocked(); err != nil {
			log.Print(err)
		}
	}
	return nil
}

// run re-pulls every interval until close.
func (c *coordinator) run(interval time.Duration) {
	defer c.loop.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			if err := c.refresh(); err != nil {
				log.Printf("ecmserver: pull failed (serving previous view): %v", err)
			}
		}
	}
}

// close stops the re-pull loop, waits for it to exit, and saves the freshest
// root so a restart resumes serving deltas from it; an unclean death just
// restores the last interval save and re-pulls the difference.
func (c *coordinator) close() (err error) {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.loop.Wait()
		if c.store != nil {
			c.refreshMu.Lock()
			err = c.persistRootLocked()
			c.refreshMu.Unlock()
		}
	})
	return err
}

// persistRootLocked saves the merged root; refreshMu is held, so saves
// serialize with view publication.
func (c *coordinator) persistRootLocked() error {
	blob := c.co.ExportState()
	if blob == nil {
		return nil // nothing merged yet
	}
	if err := c.store.Save(coordRootBlob, blob); err != nil {
		return fmt.Errorf("ecmserver: persisting merged root: %w", err)
	}
	c.lastPersist.Store(time.Now().UnixMilli())
	return nil
}

func (c *coordinator) restoreRoot() {
	blob, err := c.store.Load(coordRootBlob)
	if errors.Is(err, ecmsketch.ErrDurableNotFound) {
		return
	}
	if err == nil {
		err = c.co.RestoreState(blob)
	}
	if err != nil {
		log.Printf("ecmserver: discarding persisted root: %v", err)
		return
	}
	log.Printf("ecmserver: restored persisted merged root (resuming deltas from the same epoch)")
}

// persistedSite is one membership entry worth recreating.
type persistedSite struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

func (c *coordinator) restoreSites() {
	blob, err := c.store.Load(coordSitesBlob)
	if err != nil {
		if !errors.Is(err, ecmsketch.ErrDurableNotFound) {
			log.Printf("ecmserver: discarding persisted membership: %v", err)
		}
		return
	}
	saved, rejected, err := decodeSites(blob)
	if err != nil {
		log.Printf("ecmserver: discarding persisted membership: %v", err)
		return
	}
	for _, err := range rejected {
		log.Printf("ecmserver: skipping persisted site: %v", err)
	}
	for _, ps := range saved {
		// AddSite replaces an existing member of the same name, so entries
		// also named by the static site list register once, not twice.
		c.co.AddSite(c.httpSite(ps.URL, ps.Name))
	}
	if len(saved) > 0 {
		log.Printf("ecmserver: restored %d persisted site registrations", len(saved))
	}
}

// httpSite builds a member pulling baseURL, named name unless name is empty.
func (c *coordinator) httpSite(baseURL, name string) ecmsketch.Site {
	site := ecmsketch.NewHTTPSiteWithAuth(baseURL, c.pullClient, c.siteToken)
	site.(interface{ SetName(string) }).SetName(name)
	return site
}

// decodeSites reads the sites blob persistSites writes. It keeps the entries
// whose url passes checkSiteURL, naming an unnamed one by its url as POST
// /v1/sites does, and reports one error per entry it rejects.
func decodeSites(blob []byte) (kept []persistedSite, rejected []error, err error) {
	var saved []persistedSite
	if err := json.Unmarshal(blob, &saved); err != nil {
		return nil, nil, err
	}
	for i, ps := range saved {
		if err := checkSiteURL(ps.URL); err != nil {
			rejected = append(rejected, fmt.Errorf("entry %d (name %q): %w", i, ps.Name, err))
			continue
		}
		if ps.Name == "" {
			ps.Name = ps.URL
		}
		kept = append(kept, ps)
	}
	return kept, rejected, nil
}

// persistSites saves the current HTTP membership. Called from the
// membership handlers on every change; a no-op without a store.
func (c *coordinator) persistSites() {
	if c.store == nil {
		return
	}
	c.sitesMu.Lock()
	defer c.sitesMu.Unlock()
	var out []persistedSite
	for _, s := range c.co.Sites() {
		hs, ok := s.(interface {
			Name() string
			URL() string
		})
		if !ok {
			continue // in-process sites are not reconstructible from a blob
		}
		out = append(out, persistedSite{Name: hs.Name(), URL: hs.URL()})
	}
	blob, err := json.Marshal(out)
	if err == nil {
		err = c.store.Save(coordSitesBlob, blob)
	}
	if err != nil {
		log.Printf("ecmserver: persisting membership: %v", err)
	}
}

// addStats writes the coordinator's block of /v1/stats into out: site
// count, merged clock/count, pull and network accounting, and the last
// round's provenance. asStrings encodes the 64-bit tick/count fields as
// decimal strings, as on every tier.
func (c *coordinator) addStats(out map[string]any, asStrings bool) {
	u64 := func(v uint64) any { return wire.U64Field(asStrings, v) }
	lr := c.co.LastRefresh()
	out["role"] = "coordinator"
	out["sites"] = len(c.co.Sites())
	out["pulls"] = u64(c.pulls.Load())
	out["pullErrors"] = u64(c.pullErrs.Load())
	out["netBytes"] = u64(uint64(c.co.Network().Bytes()))
	out["netMessages"] = u64(uint64(c.co.Network().Messages()))
	out["pulledBytes"] = u64(uint64(c.co.PulledBytes()))
	out["deltaPulls"] = u64(c.co.DeltaPulls())
	out["fullPulls"] = u64(c.co.FullPulls())
	out["lastRefresh"] = map[string]any{
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
	}
	dur := map[string]any{"enabled": c.store != nil}
	if last := c.lastPersist.Load(); last != 0 {
		dur["lastPersistUnixMs"] = u64(uint64(last))
	}
	out["durability"] = dur
	if e := c.lastErr.Load(); e != nil {
		out["lastError"] = *e
	}
	if v, err := c.co.View(); err == nil {
		out["now"] = u64(v.Now())
		out["count"] = u64(v.Count())
		out["window"] = u64(v.Params().WindowLength)
	}
	if at := c.pulledAt.Load(); at != 0 {
		out["pulledAtUnixMs"] = u64(uint64(at))
	}
}

// handleSitesGet reports the membership with per-site health: consecutive
// failures, backoff rounds left before the next probe, and whether a
// retained baseline lets the site keep contributing while unreachable.
func (c *coordinator) handleSitesGet(w http.ResponseWriter, r *http.Request) {
	statuses := c.co.SiteStatuses()
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
func (c *coordinator) handleSitesAdd(w http.ResponseWriter, r *http.Request) {
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
	if err := checkSiteURL(req.URL); err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	c.co.AddSite(c.httpSite(req.URL, req.Name))
	c.persistSites()
	wire.Respond(w, map[string]any{"ok": true, "sites": len(c.co.Sites())})
}

// checkSiteURL is the one test a member's base URL must pass, whether it
// arrives by POST /v1/sites or from the persisted membership blob.
func checkSiteURL(raw string) error {
	if raw == "" {
		return errors.New("site registration requires a url")
	}
	if _, err := url.ParseRequestURI(raw); err != nil {
		return fmt.Errorf("bad site url: %v", err)
	}
	return nil
}

// handleSitesRemove drops the member named by ?name= (the site's base URL
// unless it registered under an explicit name). The next refresh rebuilds
// the merged view without its contribution.
func (c *coordinator) handleSitesRemove(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		wire.Error(w, http.StatusBadRequest, errors.New("?name= is required"))
		return
	}
	if !c.co.RemoveSite(name) {
		wire.Error(w, http.StatusNotFound, fmt.Errorf("no site named %s", name))
		return
	}
	c.persistSites()
	wire.Respond(w, map[string]any{"ok": true, "sites": len(c.co.Sites())})
}

// handleRefresh forces an immediate re-pull: POST /v1/refresh. Deployments
// use it after known site catch-ups; tests use it for determinism.
func (c *coordinator) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if err := c.refresh(); err != nil {
		wire.Error(w, http.StatusBadGateway, err)
		return
	}
	asStrings := wire.WantStrings(r)
	wire.Respond(w, map[string]any{"ok": true, "count": wire.U64Field(asStrings, c.co.Count()), "now": wire.U64Field(asStrings, c.co.Now())})
}
