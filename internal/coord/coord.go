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
// Every pull lands in the member's receiver state (core.DeltaState): Apply,
// then MaterializeShared. The coordinator's aggregation shapes
// (AggregateTree, Refresh) merge from there, so a simulation and a
// networked deployment of the same event log produce bit-identical merged
// summaries and identical Network accounting: sizes are measured at the
// transport boundary, and the tree model charges one message per
// aggregation edge regardless of how the leaves arrived.
//
// # Full and delta pulls
//
// A full pull is the protocol's own baseline: the coordinator presents the
// zero cursor and the site answers with its whole summary. That is every
// pull by default. With SetDeltaPulls(true) the coordinator instead
// presents the cursor from the member's previous pull, and the site answers
// with only the stripes and cells whose version moved; the leaf charge in
// the Network accounting is the actual delta payload size. Any cursor
// invalidation — site restart, parameter change, stale or torn payload —
// makes the coordinator transparently re-pull a full baseline from that
// site. Both modes run one receiver path, so a delta-pulling coordinator's
// merged result is byte-identical to a full-pulling one's at every pull.
package coord

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
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

// Delta pulls GET /v1/snapshot?since=<cursor> (offering gzip). A
// delta-speaking server answers with an incremental payload (or a full
// baseline when it does not recognize the cursor) plus X-Ecm-Cursor/
// X-Ecm-Delta headers; a reply without a cursor is taken as a full payload,
// so the puller keeps asking for full.
//
// The reported size is the protocol payload length: the figure the paper's
// transfer accounting charges, identical to what the in-process transport
// reports for the same summary. Negotiated compression shrinks the link
// bytes below that figure but deliberately does not enter the accounting —
// otherwise the two transports of the same event log would stop agreeing.
func (s *HTTPSite) Delta(since core.Cursor) ([]byte, core.Cursor, bool, int, error) {
	rep, err := wire.FetchSnapshot(s.hc, s.base+"/v1/snapshot?since="+url.QueryEscape(since.String()), s.token)
	if err != nil {
		return nil, core.Cursor{}, false, 0, err
	}
	cur, err := core.ParseCursor(rep.Cursor)
	if err != nil {
		// An unparsable cursor downgrades this reply to cursorless; a full
		// payload still applies, a delta one fails Apply and re-baselines.
		cur = core.Cursor{}
	}
	full := rep.Kind != wire.KindDelta || cur.IsZero()
	return rep.Payload, cur, full, len(rep.Payload), nil
}

// Coordinator aggregates a dynamic set of sites' summaries into one sketch
// of the combined stream. It is safe for concurrent use: pull rounds
// (AggregateTree, Refresh) serialize on an internal lock, membership calls
// and root queries interleave freely with them, and the per-site receiver
// states carry their own locks.
type Coordinator struct {
	net *Network

	// pulled counts payload bytes actually fetched from sites (one
	// snapshot per site per pull), as opposed to the Network's
	// aggregation-tree model in which internal edges also ship and a
	// single-site tree ships nothing. Bandwidth monitoring wants this one.
	pulled atomic.Int64

	// delta makes pulls present each member's held cursor instead of the
	// zero one; resilient switches site failures from round-fatal to
	// health-managed (retained baselines keep serving, flapping sites back
	// off).
	delta     bool
	resilient bool

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
	// DeltaSnapshot, ExportState) and its provenance. frozen is the clone
	// of root that reads are answered from: stored and cleared only under
	// rootMu, cleared by whatever moves root, so non-nil means current.
	rootMu    sync.Mutex
	root      *core.Sketch
	contrib   []*member
	lastStats RefreshStats
	frozen    atomic.Pointer[core.Sketch]
}

// maxChangedCells bounds the accumulated changed-cell set; past it the
// coordinator degrades to "everything changed", which costs one full
// re-check instead of unbounded memory.
const maxChangedCells = 8192

// siteDeltaState serializes one site's pull→apply→materialize sequence;
// concurrent AggregateTree calls contend here per site instead of corrupting
// the shared baseline.
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

// SetDeltaPulls toggles cursor-based incremental pulls (see the package
// comment). Off, every pull presents the zero cursor and so fetches a full
// baseline. On, the coordinator presents each member's held cursor, applies
// the delta, and transparently re-baselines with a full pull whenever a
// site invalidates its cursor. Either way the per-site receiver states keep
// the last summary between rounds. Configure before the first pull.
func (c *Coordinator) SetDeltaPulls(on bool) { c.delta = on }

// SetResilient switches site-failure handling from round-fatal (any failed
// site fails the whole pull, the strict default) to health-managed: a
// failing site is served from its retained baseline when one exists (delta
// mode) or excluded from the round otherwise, and repeated failures back it
// off exponentially — skipping 1, 2, 4, … up to 32 rounds between probes —
// until a successful probe re-admits it. Configure before the first pull.
func (c *Coordinator) SetResilient(on bool) { c.resilient = on }

// DeltaPulls and FullPulls report how many per-site pulls were answered
// incrementally vs with a full baseline since construction. A healthy
// delta-pulling steady state shows full pulls only at bootstrap and after
// site restarts; a full-pulling coordinator counts one full pull per site
// per round.
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

// Network exposes the communication accounting of the aggregation-tree
// model: one message per tree edge, identical across transports.
func (c *Coordinator) Network() *Network { return c.net }

// PulledBytes reports the total snapshot payload volume fetched from sites
// across all pulls — the actual transfer bill of a networked deployment
// (for in-process sites, the exact volume shipping would have cost).
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
	part  *core.Sketch // nil when the member is excluded this round
	size  int          // payload bytes fetched this round
	stale bool         // served from the retained baseline without contact
	cells []int        // merged-view cells this pull replaced
	all   bool         // the whole summary may have moved
	err   error        // round-fatal in strict mode; recorded when resilient
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
// every member's receiver lock still held, so callers can merge straight
// from the shared baselines. Nothing is charged to the Network here — the
// aggregation shapes charge their own edges — but fetched bytes are counted
// toward PulledBytes regardless of what the caller does next: they crossed
// the transport.
func (c *Coordinator) pullRound() roundResult {
	c.pullMu.Lock()
	members, round := c.beginRound()
	outs := make([]pullOutcome, len(members))
	// Bounded worker pool: 4×GOMAXPROCS lanes with a floor of 8 — pulls are
	// network-bound, so oversubscribing the cores keeps the wire busy while
	// decodes overlap — claiming members off a shared counter, where one
	// goroutine per site would be a thousand-way stampede of sockets and
	// decode allocations at a thousand-site coordinator every interval.
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := min(max(4*runtime.GOMAXPROCS(0), 8), len(members)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(members) {
					return
				}
				m := members[i]
				m.st.mu.Lock()
				outs[i] = c.pullMemberLocked(m, round)
			}
		}()
	}
	wg.Wait()
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

// pullMemberLocked pulls one member (receiver lock held by the caller). In
// resilient mode a backed-off member is not contacted at all, and a failed
// contact degrades to the retained baseline (or exclusion) instead of an
// error; strict mode surfaces the error for the round to fail on.
func (c *Coordinator) pullMemberLocked(m *member, round uint64) pullOutcome {
	if c.resilient && m.backedOff(round) {
		return c.staleOutcome(m)
	}
	o := c.pullDeltaLocked(m)
	if o.err == nil {
		m.noteSuccess()
		c.noteChanged(o.cells, o.all)
		return o
	}
	m.noteFailure(round, o.err)
	if !c.resilient {
		return o
	}
	return c.staleOutcome(m)
}

// staleOutcome serves a member from its retained baseline — the previous
// view, unchanged, at zero transfer — or excludes it when there is none.
func (c *Coordinator) staleOutcome(m *member) pullOutcome {
	if c.delta && m.st.ds.HasBaseline() {
		if sk, err := m.st.ds.MaterializeShared(); err == nil {
			return pullOutcome{part: sk, stale: true}
		}
	}
	return pullOutcome{}
}

// pullDeltaLocked performs one pull of a member: present a cursor — the
// held one in delta mode, the zero one otherwise — apply what comes back,
// and materialize the site's summary from the retained baseline. When a
// delta fails to apply — the site restarted, the cursor went stale, the
// payload arrived torn — the receiver state has already dropped its
// baseline, and the coordinator transparently re-pulls a full baseline in
// the same round; both transfers are charged. A failed full baseline is not
// re-pulled, so a full pull stays one transfer per site per round.
func (c *Coordinator) pullDeltaLocked(m *member) pullOutcome {
	ds := &m.st.ds
	var since core.Cursor
	if c.delta {
		since = ds.Cursor()
	}
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
	sk, err := ds.MaterializeShared()
	if err != nil {
		return pullOutcome{err: err}
	}
	return pullOutcome{part: sk, size: total, cells: cells, all: all}
}

// foldOutcomes turns a round's outcomes into mergeable parts plus their
// leaf transfer sizes: strict mode surfaces the first site error; resilient
// mode drops excluded members.
func (c *Coordinator) foldOutcomes(r roundResult) ([]*core.Sketch, []int, error) {
	if len(r.members) == 0 {
		return nil, nil, errors.New("coord: no sites to aggregate")
	}
	for i, o := range r.outs {
		if o.err != nil {
			return nil, nil, fmt.Errorf("coord: site %s: %w", r.members[i].site.Name(), o.err)
		}
	}
	parts := make([]*core.Sketch, 0, len(r.outs))
	sizes := make([]int, 0, len(r.outs))
	names := make([]string, 0, len(r.outs))
	for i, o := range r.outs {
		if o.part == nil {
			continue
		}
		parts = append(parts, o.part)
		sizes = append(sizes, o.size)
		names = append(names, r.members[i].site.Name())
	}
	if len(parts) == 0 {
		return nil, nil, errors.New("coord: no sites available (every site excluded by health backoff)")
	}
	for i := 1; i < len(parts); i++ {
		if !parts[0].Compatible(parts[i]) {
			return nil, nil, fmt.Errorf("coord: site %s: sketch parameters incompatible with site %s",
				names[i], names[0])
		}
	}
	return parts, sizes, nil
}

// AggregateTree pulls every site's summary and merges bottom-up over a
// balanced binary tree of height ⌈log₂ n⌉, as in the paper's distributed
// experiments: all sites are leaves; each aggregation edge ships the
// child's summary (charged to the Network at the size the transport
// reported: the payload length), and each internal node merges its children
// with the order-preserving ⊕. An odd node out is promoted to the next
// level, its summary still traveling one hop upward. The root sketch
// summarizing the union stream is returned with the tree height.
func (c *Coordinator) AggregateTree() (*core.Sketch, int, error) {
	r := c.pullRound()
	defer r.release()
	level, lsz, err := c.foldOutcomes(r)
	if err != nil {
		return nil, 0, err
	}
	if len(level) == 1 {
		// A single-leaf tree returns the leaf itself, which aliases the
		// receiver baseline: the caller gets a clone.
		root, err := level[0].Snapshot()
		return root, 0, err
	}
	height := 0
	// Internal-node sizes are computed lazily (sentinel -1) at the moment
	// the node is actually charged for an upward hop: the root never ships
	// anywhere, so its encoding — made only to be measured — is never made.
	charge := func(lsz []int, level []*core.Sketch, i int) int {
		if lsz[i] < 0 {
			lsz[i] = len(level[i].Marshal())
		}
		c.net.Charge(lsz[i])
		return lsz[i]
	}
	for len(level) > 1 {
		next := make([]*core.Sketch, 0, (len(level)+1)/2)
		nsz := make([]int, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				sz := charge(lsz, level, i)
				next = append(next, level[i])
				nsz = append(nsz, sz)
				continue
			}
			charge(lsz, level, i)
			charge(lsz, level, i+1)
			m, err := core.Merge(level[i], level[i+1])
			if err != nil {
				return nil, 0, fmt.Errorf("coord: aggregation at height %d: %w", height, err)
			}
			next = append(next, m)
			nsz = append(nsz, -1)
		}
		level, lsz = next, nsz
		height++
	}
	return level[0], height, nil
}
