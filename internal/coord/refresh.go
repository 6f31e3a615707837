package coord

// Incremental re-merge and delta re-serving: Refresh maintains one
// persistent merged root instead of rebuilding the aggregation from scratch
// every interval. Each round pulls the sites (delta pulls, normally),
// collects the union of merged-view cells the deltas replaced, and patches
// exactly those cells of the root with core.PatchMerged — whose output is
// pinned byte-identical to a from-scratch flat merge (core.Merge) over the
// same parts. The parts are the sites' stripe parts themselves, in
// membership order and then stripe order, so the root is one ⊕ level above
// the leaves and pays Theorem 4's window-error inflation once. Sites with
// zero changed cells contribute nothing but their retained baseline to the
// replay, and cost nothing beyond it.
//
// Because the root is a long-lived sketch patched through ordinary arrival
// mutations, its cell versions move exactly like a leaf engine's — so the
// coordinator can serve the cursor-based delta protocol upward from the
// root (DeltaSnapshot satisfies the same source contract leaf engines do),
// and stacked coordinators pull deltas from coordinators the way
// coordinators pull deltas from sites.
//
// Queries never touch the live root: they read a frozen clone of it (View),
// the Sharded engine's merged-view discipline one level up, which makes a
// Coordinator a read-side front end ecmserver can serve like any other.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ecmsketch/internal/core"
)

// RefreshStats describes one successful Refresh round.
type RefreshStats struct {
	// Round is the pull-round number the refresh ran as.
	Round uint64
	// Contributors is how many members' summaries entered the merge;
	// Stale of them were served from retained baselines without contact,
	// and Excluded members contributed nothing at all.
	Contributors, Stale, Excluded int
	// PulledBytes is the payload volume fetched this round.
	PulledBytes int64
	// ChangedCells is the size of the changed-cell union the root was
	// patched from (with duplicates across sites; meaningless when
	// RebuiltAll). RebuiltAll marks a full re-derivation of every root
	// cell: the first round, a contributor-set change, or a pull that lost
	// cell granularity.
	ChangedCells int
	RebuiltAll   bool
	// MergeNs is the wall time the root patch (or bootstrap merge) took
	// this round, and Workers the size of the pool the cell replay fanned
	// across (1 = sequential) — together the effective parallelism of the
	// merge step, surfaced through /v1/stats.
	MergeNs int64
	Workers int
}

// Refresh runs one incremental re-merge round — the coordinator's only
// aggregation round: pull every member, then bring the persistent merged
// root up to date by re-deriving only the cells the pulls changed. Failing
// members are served stale or excluded (see the package comment); when no
// member contributes, or two contributors cannot be merged, the root is
// left as it was, still serving the previous view, and Refresh errors.
//
// The Network is charged one message per member pulled this round, at the
// payload size; a stale member costs nothing. A tree of coordinators
// sharing one Network (Cluster.AggregateTree) is so charged once per edge.
func (c *Coordinator) Refresh() error {
	r := c.pullRound()
	defer r.release()
	parts, err := c.foldOutcomes(r)
	if err != nil {
		return err
	}
	// Taken after the pulls (pullMu already orders concurrent rounds), so
	// readers and upward delta pulls wait out a patch, never a network round.
	c.rootMu.Lock()
	defer c.rootMu.Unlock()

	stats := RefreshStats{Round: r.round}
	var contrib []*member
	var union []int
	anyAll := false
	for i, o := range r.outs {
		if o.parts == nil {
			stats.Excluded++
			continue
		}
		contrib = append(contrib, r.members[i])
		stats.Contributors++
		if o.stale {
			stats.Stale++
			continue
		}
		stats.PulledBytes += int64(o.size)
		c.net.Charge(o.size)
		if o.all {
			anyAll = true
		} else {
			union = append(union, o.cells...)
		}
	}

	same := slices.Equal(c.contrib, contrib)
	mergeStart := time.Now()
	switch {
	case c.root == nil:
		root, err := core.Merge(parts...)
		if err != nil {
			return fmt.Errorf("coord: %w", err)
		}
		c.root = root
		stats.RebuiltAll = true
	default:
		// A site whose stripe count changed has restarted: its pull was a
		// full baseline, so anyAll already covers the reshaped inputs.
		all := anyAll || !same
		cells := union
		if all {
			cells = nil
		}
		if err := core.PatchMerged(c.root, parts, cells, all, nil); err != nil {
			// Parameters changed under us, or the engine has no cell bank:
			// rebuild from scratch. The fresh epoch invalidates downstream
			// cursors, and those pullers re-baseline — exactly as they
			// would against a restarted leaf.
			root, mergeErr := core.Merge(parts...)
			if mergeErr != nil {
				return fmt.Errorf("coord: %w", mergeErr)
			}
			c.root = root
			c.noteChanged(nil, true)
			all = true
		}
		stats.RebuiltAll = all
		if !same {
			// The contributor set changed: every root cell may have moved,
			// and the standing-query feed must not under-report.
			c.noteChanged(nil, true)
		}
	}
	stats.MergeNs = time.Since(mergeStart).Nanoseconds()
	patched := len(union)
	if stats.RebuiltAll {
		patched = c.root.Depth() * c.root.Width()
	}
	stats.Workers = core.MergeWorkersFor(patched)
	stats.ChangedCells = len(union)
	c.contrib = contrib
	c.lastStats = stats
	c.frozen.Store(nil)
	return nil
}

// LastRefresh reports the most recent successful Refresh round's stats.
func (c *Coordinator) LastRefresh() RefreshStats {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	return c.lastStats
}

// ErrNotReady is returned by the read side before the first successful
// Refresh or RestoreState: there is no merged view to answer from yet.
var ErrNotReady = errors.New("coord: no merged view yet (Refresh has not succeeded)")

// View returns the frozen clone of the merged root that reads are answered
// from: settled to its own clock, so every query on it is a pure read, and
// shared — callers must not mutate it. Refresh only invalidates the clone;
// the first View after a round republishes it.
func (c *Coordinator) View() (*core.Sketch, error) {
	v, err := c.view()
	if err != nil {
		return nil, err
	}
	return v.Sketch(), nil
}

// view returns the published frozen view, publishing it first if the last
// round invalidated it. Its aggregates are memoised per range, so root
// readers polling the same totals between rounds share one sweep.
func (c *Coordinator) view() (*core.View, error) {
	if v := c.frozen.Load(); v != nil {
		return v, nil
	}
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	if v := c.frozen.Load(); v != nil {
		return v, nil
	}
	if c.root == nil {
		return nil, ErrNotReady
	}
	sk, err := c.root.Snapshot()
	if err != nil {
		return nil, err
	}
	sk.Advance(sk.Now())
	v := core.NewView(sk)
	c.frozen.Store(v)
	return v, nil
}

// QueryBatch answers a multi-key query from the frozen view: one consistent
// cut of the merged stream as of the last round.
func (c *Coordinator) QueryBatch(q core.QueryBatch) (core.QueryResult, error) {
	v, err := c.view()
	if err != nil {
		return core.QueryResult{}, err
	}
	return v.QueryBatch(q)
}

// QueryDirect answers the point-only form from the same view: a coordinator
// has no stripes to route to, so only the direct contract applies
// (aggregates rejected) and ?direct=1 behaves the same at every tier.
func (c *Coordinator) QueryDirect(q core.QueryBatch) (core.QueryResult, error) {
	v, err := c.View()
	if err != nil {
		return core.QueryResult{}, err
	}
	return v.QueryDirect(q)
}

// Now and Count report the frozen view's clock and arrival count; zero
// before the first round.
func (c *Coordinator) Now() core.Tick {
	if v, err := c.View(); err == nil {
		return v.Now()
	}
	return 0
}

func (c *Coordinator) Count() uint64 {
	if v, err := c.View(); err == nil {
		return v.Count()
	}
	return 0
}

// Marshal serializes the frozen view; nil before the first round.
func (c *Coordinator) Marshal() []byte {
	v, err := c.View()
	if err != nil {
		return nil
	}
	return v.Marshal()
}

// Snapshot returns an independent clone of the frozen view.
func (c *Coordinator) Snapshot() (*core.Sketch, error) {
	v, err := c.View()
	if err != nil {
		return nil, err
	}
	return v.Snapshot()
}

// DeltaSnapshot serves the cursor-based incremental protocol from the
// merged root: a parent presenting the cursor from its previous pull
// receives only the root cells Refresh re-derived since — in steady state a
// small fraction of the merged view — and any unrecognized cursor receives
// a full baseline. Satisfies DeltaSnapshotSource, so a coordinator nests
// under a parent via NewLocalSite — the in-process form of a coordinator
// hierarchy — and stacked coordinators pull through the exact receiver path
// they use against leaves.
func (c *Coordinator) DeltaSnapshot(since core.Cursor) ([]byte, core.Cursor, bool, error) {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	if c.root == nil {
		return nil, core.Cursor{}, false, ErrNotReady
	}
	return c.root.DeltaSnapshot(since)
}
