// Package coord is the transport-abstracted coordinator of the paper's
// distributed deployments: remote sites summarize their local sub-streams
// in ECM-sketches, and a coordinator pulls those summaries and aggregates
// them bottom-up over a balanced binary tree (the topology of Section 7.3)
// with the order-preserving merge ⊕.
//
// The Site interface is the transport seam, and it moves a summary one way:
// Delta, the cursor-based snapshot protocol. Two implementations ship:
//
//   - LocalSite wraps any in-process front end with DeltaSnapshot (a
//     *core.Sketch, the sharded engine, a child Coordinator). Its transfer
//     is the payload the front end encodes, and the size it reports is that
//     payload's length.
//   - HTTPSite pulls GET /v1/snapshot?since= from an ecmserver deployment;
//     the size it reports is the payload length actually transferred.
//
// Every pull lands in the member's receiver state (core.DeltaState), which
// holds the site's stripe parts. Refresh, the coordinator's one aggregation
// round, merges every site's parts in one flat ⊕ — a coordinator over
// leaves is one merge level deep however the leaves are striped — so a
// simulation and a networked deployment of the same event log produce
// bit-identical merged summaries and identical Network accounting: sizes
// are measured at the transport boundary, and every member pull is charged
// as one message. The paper's balanced binary tree
// is a tree of coordinators (Cluster.AggregateTree), each pulling its
// children through NewLocalSite.
//
// # Cursor pulls
//
// Each pull presents the cursor from the member's previous pull. A member
// with no baseline presents the zero cursor and receives its site's whole
// summary; after that the site answers with only the stripes and cells
// whose version moved, and the Network charge is the delta payload size.
// Any cursor invalidation — site restart, parameter change, stale or torn
// payload — makes the coordinator transparently re-pull a full baseline
// from that site, so a coordinator that has only ever applied deltas holds
// the same merged summary, byte for byte, as a fresh one pulling every
// site in full.
//
// # Failing sites
//
// A site whose pull fails is served from its retained baseline (stale) or,
// without one, excluded from the round, and repeated failures back it off
// exponentially — skipping 1, 2, 4, … up to 32 rounds between probes —
// until a successful probe re-admits it. SiteStatuses and LastRefresh
// report both; a round fails only when no member contributes.
package coord

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"ecmsketch/internal/core"
	"ecmsketch/internal/wire"
)

// Network accumulates communication-cost accounting across goroutines: the
// byte and message volume of every aggregation edge, the figure the paper's
// distributed experiments report as transfer cost.
type Network struct {
	bytes    atomic.Int64
	messages atomic.Int64
}

// Charge records one message of n payload bytes.
func (n *Network) Charge(payload int) {
	n.bytes.Add(int64(payload))
	n.messages.Add(1)
}

// Bytes reports the total payload volume transferred.
func (n *Network) Bytes() int64 { return n.bytes.Load() }

// Messages reports the number of messages sent.
func (n *Network) Messages() int64 { return n.messages.Load() }

// Site is one summary source behind a transport. Delta answers a cursor
// with a raw protocol payload the coordinator's per-site DeltaState
// applies — a full baseline for the zero cursor or any cursor the site does
// not recognize, an incremental delta otherwise — plus the wire size that
// transfer costs, measured at the transport boundary: the protocol payload
// length, identical across transports for the same summary.
type Site interface {
	// Name identifies the site in errors and accounting.
	Name() string
	// Delta fetches the site's update since a cursor: the payload, the
	// cursor it brings the puller to, whether the payload is a full
	// baseline, and the transfer size. A site that does not speak cursors
	// answers every cursor with a full payload and a zero cursor.
	Delta(since core.Cursor) (payload []byte, cur core.Cursor, full bool, size int, err error)
}

// DeltaSnapshotSource is the engine contract an in-process site needs:
// *core.Sketch, the sharded engine, a Coordinator and every other front end
// of the public API satisfy it.
type DeltaSnapshotSource interface {
	DeltaSnapshot(since core.Cursor) ([]byte, core.Cursor, bool, error)
}

// LocalSite adapts an in-process front end as a coordinator site.
type LocalSite struct {
	name string
	src  DeltaSnapshotSource
}

// NewLocalSite wraps src as a site named name.
func NewLocalSite(name string, src DeltaSnapshotSource) *LocalSite {
	return &LocalSite{name: name, src: src}
}

// Name identifies the site.
func (s *LocalSite) Name() string { return s.name }

// Delta answers a pull from the source's own DeltaSnapshot. The payload is
// real bytes even in-process: both transports hand the receiver identical
// payloads, which is what the cross-transport equivalence tests pin.
func (s *LocalSite) Delta(since core.Cursor) ([]byte, core.Cursor, bool, int, error) {
	payload, cur, full, err := s.src.DeltaSnapshot(since)
	if err != nil {
		return nil, core.Cursor{}, false, 0, err
	}
	return payload, cur, full, len(payload), nil
}

// HTTPSite pulls summaries from an ecmserver deployment over HTTP.
type HTTPSite struct {
	name  string
	base  string
	hc    *http.Client
	token string
}

// NewHTTPSite builds a site pulling from the ecmserver instance at baseURL
// (e.g. "http://collector-3:8080"). A nil client uses the package's shared
// pull client — one keep-alive transport across every such site, with a
// 30-second overall timeout (see NewPullClient); pass an explicit client to
// change timeouts or trust private root CAs.
func NewHTTPSite(baseURL string, hc *http.Client) *HTTPSite {
	if hc == nil {
		hc = defaultPullClient
	}
	base := strings.TrimRight(baseURL, "/")
	return &HTTPSite{name: base, base: base, hc: hc}
}

// Name identifies the site (its base URL, unless renamed with SetName).
func (s *HTTPSite) Name() string { return s.name }

// URL reports the base URL the site pulls from — the piece of a dynamic
// registration worth persisting so membership survives a coordinator
// restart.
func (s *HTTPSite) URL() string { return s.base }

// SetName gives the site a stable identity independent of its address, so a
// site re-registering from a new host/port replaces its old membership entry
// instead of accumulating a duplicate. Configure before handing the site to
// a coordinator; the name keys membership and health.
func (s *HTTPSite) SetName(name string) {
	if name != "" {
		s.name = name
	}
}

// SetAuthToken makes every pull carry "Authorization: Bearer <tok>" — the
// credential an ecmserver started with a non-empty AuthToken requires. An
// empty token sends no header. Configure before the first pull.
func (s *HTTPSite) SetAuthToken(tok string) { s.token = tok }

// Delta pulls GET /v1/snapshot?since=<cursor> through wire.FetchDelta, the
// one HTTP delta pull.
//
// The reported size is the protocol payload length: the figure the paper's
// transfer accounting charges, identical to what the in-process transport
// reports for the same summary, and the body's length on the link.
func (s *HTTPSite) Delta(since core.Cursor) ([]byte, core.Cursor, bool, int, error) {
	payload, cur, full, err := wire.FetchDelta(s.hc, s.base, s.token, since)
	return payload, cur, full, len(payload), err
}

// Coordinator aggregates a dynamic set of sites' summaries into one sketch
// of the combined stream. It is safe for concurrent use: Refresh rounds
// serialize on an internal lock, membership calls
// and root queries interleave freely with them, and the per-site receiver
// states carry their own locks.
type Coordinator struct {
	net *Network

	// pulled counts payload bytes actually fetched from sites (one
	// snapshot per site per pull), as opposed to the Network, which a tree
	// of coordinators may share so that every edge of the tree is charged
	// to one account. Bandwidth monitoring wants this one.
	pulled atomic.Int64

	// mu guards the membership list and the pull-round counter.
	mu      sync.RWMutex
	members []*member
	round   uint64

	// pullMu serializes pull rounds: a round holds every member's receiver
	// lock at once (so Refresh can patch the root from shared baselines
	// without cloning them), and two interleaved rounds would deadlock on
	// each other's members.
	pullMu sync.Mutex

	fullPulls, deltaPulls atomic.Uint64

	// changed accumulates which merged-view cells moved across pulls since
	// the last TakeChangedCells — the feed a standing-query registry over
	// the aggregated view re-checks incrementally. Cell indices are shared
	// across sites and the merged root (same (w, d, seed) hash layout), so
	// a union of per-site changed cells is exactly the set of root cells
	// whose estimate may have moved.
	changedMu    sync.Mutex
	changedCells []int
	changedAll   bool

	// rootMu guards the incrementally maintained merged view (Refresh,
	// DeltaSnapshot, ExportState) and its provenance. frozen is the view
	// over a clone of root that reads are answered from: stored and cleared
	// only under rootMu, cleared by whatever moves root, so non-nil means
	// current.
	rootMu    sync.Mutex
	root      *core.Sketch
	contrib   []*member
	lastStats RefreshStats
	frozen    atomic.Pointer[core.View]
}

// maxChangedCells bounds the accumulated changed-cell set; past it the
// coordinator degrades to "everything changed", which costs one full
// re-check instead of unbounded memory.
const maxChangedCells = 8192

// siteDeltaState serializes one site's pull→apply→merge sequence: a pull
// round holds it across the merge, and SiteStatuses takes it to read the
// baseline state.
type siteDeltaState struct {
	mu sync.Mutex
	ds core.DeltaState
}

// New builds a coordinator over the given sites with fresh network
// accounting.
func New(sites ...Site) *Coordinator {
	c := &Coordinator{net: new(Network)}
	for _, s := range sites {
		c.members = append(c.members, &member{site: s})
	}
	return c
}

// SetDeltaPulls is a no-op: every pull presents the member's held cursor.
// It is kept only for bench/coord_refresh.go until that caller is dropped.
func (c *Coordinator) SetDeltaPulls(on bool) {}

// SetResilient is a no-op: a failing site is always excluded or served
// stale. It is kept only for bench/coord_refresh.go until that caller is
// dropped.
func (c *Coordinator) SetResilient(on bool) {}

// DeltaPulls and FullPulls report how many per-site pulls were answered
// incrementally vs with a full baseline since construction. A healthy
// steady state shows full pulls only at bootstrap and after site restarts.
func (c *Coordinator) DeltaPulls() uint64 { return c.deltaPulls.Load() }
func (c *Coordinator) FullPulls() uint64  { return c.fullPulls.Load() }

// Sites exposes a snapshot of the coordinator's current site set, in
// membership order.
func (c *Coordinator) Sites() []Site {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Site, len(c.members))
	for i, m := range c.members {
		out[i] = m.site
	}
	return out
}

// Network exposes the communication accounting: one message per member
// pull, at the payload size, identical across transports.
func (c *Coordinator) Network() *Network { return c.net }

// PulledBytes reports the total snapshot payload volume fetched from sites
// across all pulls — the actual transfer bill of a networked deployment,
// literally: snapshot bodies are never compressed, so the payload is the
// body that crossed the link (for in-process sites, the exact volume
// shipping would have cost).
func (c *Coordinator) PulledBytes() int64 { return c.pulled.Load() }

// noteChanged records moved cells from one site pull. all marks the whole
// summary changed (full baselines).
func (c *Coordinator) noteChanged(cells []int, all bool) {
	c.changedMu.Lock()
	defer c.changedMu.Unlock()
	if c.changedAll {
		return
	}
	if all || len(c.changedCells)+len(cells) > maxChangedCells {
		c.changedCells, c.changedAll = nil, true
		return
	}
	c.changedCells = append(c.changedCells, cells...)
}

// TakeChangedCells returns the union of cell indices replaced across all
// sites since the previous call, clearing the accumulator. all == true means
// "treat everything as changed" — reported after full baselines or when the
// set outgrew its bound. The slice may contain duplicates and is owned by
// the caller. Serving coordinators hand the result to
// StandingRegistry.RefreshTarget after each refresh.
func (c *Coordinator) TakeChangedCells() (cells []int, all bool) {
	c.changedMu.Lock()
	defer c.changedMu.Unlock()
	cells, all = c.changedCells, c.changedAll
	c.changedCells, c.changedAll = nil, false
	return cells, all
}

// pullOutcome is one member's contribution to a pull round.
type pullOutcome struct {
	parts []*core.Sketch // the member's stripe parts; nil when excluded this round
	size  int            // payload bytes fetched this round
	stale bool           // served from the retained baseline without contact
	cells []int          // merged-view cells this pull replaced
	all   bool           // the whole summary may have moved
	err   error          // why the member's pull failed this round
}

// roundResult is one pull round's members, outcomes, and the release that
// unlocks every member's receiver state (and the round lock). Parts alias
// the receiver baselines and must not outlive release.
type roundResult struct {
	round   uint64
	members []*member
	outs    []pullOutcome
	release func()
}

// beginRound snapshots the membership and advances the round counter.
func (c *Coordinator) beginRound() ([]*member, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.round++
	return slices.Clone(c.members), c.round
}

// pullRound fetches every member concurrently and returns the outcomes with
// every member's receiver lock still held, so Refresh can merge straight
// from the shared baselines. Nothing is charged to the Network here —
// Refresh charges the pulls that entered the merge — but fetched bytes are
// counted toward PulledBytes regardless: they crossed the transport.
func (c *Coordinator) pullRound() roundResult {
	c.pullMu.Lock()
	members, round := c.beginRound()
	outs := make([]pullOutcome, len(members))
	// Bounded worker pool: 4×GOMAXPROCS lanes with a floor of 8 — pulls are
	// network-bound, so oversubscribing the cores keeps the wire busy while
	// decodes overlap — claiming members off a shared counter, where one
	// goroutine per site would be a thousand-way stampede of sockets and
	// decode allocations at a thousand-site coordinator every interval.
	core.FanOut(len(members), max(4*runtime.GOMAXPROCS(0), 8), func(i int) {
		m := members[i]
		m.st.mu.Lock()
		outs[i] = c.pullMemberLocked(m, round)
	})
	for i := range outs {
		c.pulled.Add(int64(outs[i].size))
	}
	release := func() {
		for _, m := range members {
			m.st.mu.Unlock()
		}
		c.pullMu.Unlock()
	}
	return roundResult{round: round, members: members, outs: outs, release: release}
}

// pullMemberLocked pulls one member (receiver lock held by the caller). A
// backed-off member is not contacted at all, and a failed contact degrades
// to the retained baseline, or to exclusion without one.
func (c *Coordinator) pullMemberLocked(m *member, round uint64) pullOutcome {
	if m.backedOff(round) {
		return staleOutcome(m, nil)
	}
	o := c.pullDeltaLocked(m)
	if o.err == nil {
		m.noteSuccess()
		c.noteChanged(o.cells, o.all)
		return o
	}
	m.noteFailure(round, o.err)
	return staleOutcome(m, o.err)
}

// staleOutcome serves a member from its retained baseline — the previous
// view, unchanged, at zero transfer — or excludes it when there is none.
func staleOutcome(m *member, err error) pullOutcome {
	if parts := m.st.ds.Parts(); parts != nil {
		return pullOutcome{parts: parts, stale: true}
	}
	return pullOutcome{err: err}
}

// pullDeltaLocked performs one pull of a member: present the held cursor
// (zero without a baseline), apply what comes back, and hand on the site's
// retained parts for Refresh to merge. When a
// delta fails to apply — the site restarted, the cursor went stale, the
// payload arrived torn — the receiver state has already dropped its
// baseline, and the coordinator transparently re-pulls a full baseline in
// the same round; both transfers are charged. A failed full baseline is not
// re-pulled, so a full pull stays one transfer per site per round.
func (c *Coordinator) pullDeltaLocked(m *member) pullOutcome {
	ds := &m.st.ds
	since := ds.Cursor()
	payload, cur, full, size, err := m.site.Delta(since)
	if err != nil {
		return pullOutcome{err: err}
	}
	total := size
	if applyErr := ds.Apply(payload, cur, full); applyErr != nil {
		if since.IsZero() {
			return pullOutcome{err: applyErr}
		}
		payload, cur, full, size, err = m.site.Delta(core.Cursor{})
		total += size
		if err != nil {
			return pullOutcome{err: err}
		}
		if !full {
			return pullOutcome{err: fmt.Errorf("incremental payload for a zero cursor (after %v)", applyErr)}
		}
		if err := ds.Apply(payload, cur, full); err != nil {
			return pullOutcome{err: fmt.Errorf("re-baseline failed: %w (after %v)", err, applyErr)}
		}
	}
	if full {
		c.fullPulls.Add(1)
	} else {
		c.deltaPulls.Add(1)
	}
	cells, all := ds.TakeChangedCells()
	return pullOutcome{parts: ds.Parts(), size: total, cells: cells, all: all}
}

// foldOutcomes flattens a round's outcomes into the root's merge inputs —
// every contributing member's stripe parts, in membership order and then
// stripe order — dropping excluded members. It fails when no member
// contributes, naming the first pull error, or when a part cannot be merged
// with the first.
func (c *Coordinator) foldOutcomes(r roundResult) ([]*core.Sketch, error) {
	if len(r.members) == 0 {
		return nil, errors.New("coord: no sites to aggregate")
	}
	var parts []*core.Sketch
	first := ""
	var firstErr error
	for i, o := range r.outs {
		name := r.members[i].site.Name()
		if o.parts == nil {
			if firstErr == nil && o.err != nil {
				firstErr = fmt.Errorf("site %s: %w", name, o.err)
			}
			continue
		}
		if parts == nil {
			first = name
		}
		for _, p := range o.parts {
			if parts != nil && !parts[0].Compatible(p) {
				return nil, fmt.Errorf("coord: site %s: sketch parameters incompatible with site %s",
					name, first)
			}
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		if firstErr != nil {
			return nil, fmt.Errorf("coord: no site contributed: %w", firstErr)
		}
		return nil, errors.New("coord: no sites available (every site excluded by health backoff)")
	}
	return parts, nil
}
