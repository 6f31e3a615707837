package main

// Coordinator durability: with -data-dir the coordinator persists its two
// pieces of restart-worthy state through the same pluggable store the leaf
// engines use — the merged root with its delta-serving epoch and version
// vector (blob "root", via Coordinator.ExportState), and the dynamic
// membership (blob "sites", as JSON name/url pairs). A restarted
// coordinator restores both before serving: parents holding pre-restart
// cursors keep receiving deltas instead of re-baselining, and sites
// registered at runtime via POST /v1/sites survive without re-registering.
//
// The root blob is refreshed after successful pull rounds, rate-limited by
// -snapshot-interval, and once more on SIGINT/SIGTERM; the sites blob is
// small and saved on every membership change. There is no coordinator WAL:
// the sites themselves are the log — anything a persisted root misses is
// re-pulled on the first refresh.

import (
	"encoding/json"
	"errors"
	"log"
	"time"

	"ecmsketch"
)

const (
	coordRootBlob  = "root"
	coordSitesBlob = "sites"
)

// persistedSite is one dynamic membership entry worth recreating.
type persistedSite struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// enableDurability attaches the store and restores whatever it holds.
// Restore failures are logged and discarded — the coordinator then
// bootstraps from the sites exactly as a memory-only one would.
func (cs *coordServer) enableDurability(store ecmsketch.DurableStore, interval time.Duration) {
	cs.store = store
	if interval <= 0 {
		interval = time.Minute
	}
	cs.persistIvl = interval
	cs.restoreSites()
	cs.restoreRoot()
}

func (cs *coordServer) restoreRoot() {
	blob, err := cs.store.Load(coordRootBlob)
	if errors.Is(err, ecmsketch.ErrDurableNotFound) {
		return
	}
	if err == nil {
		err = cs.co.RestoreState(blob)
	}
	if err != nil {
		log.Printf("ecmcoord: discarding persisted root: %v", err)
		return
	}
	// The surface is live from here, before the first pull round completes:
	// the coordinator answers queries and deltas from the restored root.
	log.Printf("ecmcoord: restored persisted merged root (resuming deltas from the same epoch)")
}

func (cs *coordServer) restoreSites() {
	blob, err := cs.store.Load(coordSitesBlob)
	if err != nil {
		if !errors.Is(err, ecmsketch.ErrDurableNotFound) {
			log.Printf("ecmcoord: discarding persisted membership: %v", err)
		}
		return
	}
	var saved []persistedSite
	if err := json.Unmarshal(blob, &saved); err != nil {
		log.Printf("ecmcoord: discarding persisted membership: %v", err)
		return
	}
	for _, ps := range saved {
		if ps.URL == "" {
			continue
		}
		site := ecmsketch.NewHTTPSiteWithAuth(ps.URL, cs.siteClient, cs.siteToken)
		if ps.Name != ps.URL {
			site.(interface{ SetName(string) }).SetName(ps.Name)
		}
		// AddSite replaces an existing member of the same name, so entries
		// also named by -sites register once, not twice.
		cs.co.AddSite(site)
	}
	if len(saved) > 0 {
		log.Printf("ecmcoord: restored %d persisted site registrations", len(saved))
	}
}

// persistSites snapshots the current HTTP membership. Called from the
// membership handlers on every change; a no-op without -data-dir.
func (cs *coordServer) persistSites() {
	if cs.store == nil {
		return
	}
	var out []persistedSite
	for _, s := range cs.co.Sites() {
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
		err = cs.store.Save(coordSitesBlob, blob)
	}
	if err != nil {
		log.Printf("ecmcoord: persisting membership: %v", err)
	}
}

// maybePersistRoot saves the merged root if -snapshot-interval has elapsed
// since the last save. Called under refreshMu after successful refreshes,
// so saves serialize with view publication.
func (cs *coordServer) maybePersistRoot() {
	if cs.store == nil || time.Since(cs.lastPersist) < cs.persistIvl {
		return
	}
	cs.persistRootLocked()
}

// persistRootNow is the shutdown path: grab refreshMu so a concurrent
// refresh cannot interleave, then save unconditionally.
func (cs *coordServer) persistRootNow() {
	if cs.store == nil {
		return
	}
	cs.refreshMu.Lock()
	defer cs.refreshMu.Unlock()
	cs.persistRootLocked()
}

func (cs *coordServer) persistRootLocked() {
	blob := cs.co.ExportState()
	if blob == nil {
		return // nothing merged yet
	}
	if err := cs.store.Save(coordRootBlob, blob); err != nil {
		log.Printf("ecmcoord: persisting merged root: %v", err)
		return
	}
	cs.lastPersist = time.Now()
}
