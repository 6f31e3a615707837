package coord

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ecmsketch/internal/core"
	"ecmsketch/internal/workload"
)

// Cluster simulates the paper's distributed deployments in one process: n
// sites each observe a local sub-stream and summarize it in an ECM-sketch,
// and AggregateTree merges them through a tree of the same Coordinators a
// networked deployment runs.
type Cluster struct {
	sites []*core.Sketch
	net   Network
}

// SiteIDSalt is the identifier salt of a cluster's site i. Randomized
// waves union by identifier, so merged sites need distinct salts.
func SiteIDSalt(i int) uint64 { return 0x5151_0000_0000_0001 * uint64(i+1) }

// NewCluster builds n sites with identically configured (and hence
// mergeable) ECM-sketches. Each gets its SiteIDSalt, so randomized-wave
// sketches' auto-generated event identifiers stay globally unique.
func NewCluster(p core.Params, n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("coord: a cluster needs at least one site, got %d", n)
	}
	c := new(Cluster)
	for i := 0; i < n; i++ {
		s, err := core.New(p)
		if err != nil {
			return nil, fmt.Errorf("coord: cluster site %d: %w", i, err)
		}
		s.SetIDSalt(SiteIDSalt(i))
		c.sites = append(c.sites, s)
	}
	return c, nil
}

// Sites exposes the local sketches (after IngestAll, for inspection).
func (c *Cluster) Sites() []*core.Sketch { return c.sites }

// Network exposes the communication accounting.
func (c *Cluster) Network() *Network { return &c.net }

// IngestAll feeds a pre-generated stream: events are grouped per site
// (ev.Site modulo the cluster size) in stream order, each site applies its
// share with one AddBatch on its own goroutine, and every site then advances
// to the stream's last tick, which IngestAll returns.
func (c *Cluster) IngestAll(events []workload.Event) core.Tick {
	groups := make([][]core.Event, len(c.sites))
	var now core.Tick
	for _, ev := range events {
		i := ev.Site % len(c.sites)
		groups[i] = append(groups[i], core.Event{Key: ev.Key, Tick: ev.Time, N: 1})
		now = max(now, ev.Time)
	}
	var wg sync.WaitGroup
	for i, s := range c.sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.AddBatch(groups[i])
			s.Advance(now)
		}()
	}
	wg.Wait()
	return now
}

// AggregateTree merges the site sketches bottom-up over a balanced binary
// tree of height ⌈log₂ n⌉, as in the distributed experiments, built from
// Coordinators sharing the cluster's Network: each level pairs the previous
// level's nodes under a new Coordinator that pulls them through
// NewLocalSite (an odd node is relayed by a one-member Coordinator, so it
// still travels one hop per level). Every edge is charged by the Refresh
// that pulls it, at the payload size. The root's summary of the union
// stream is returned together with the tree height; a one-site cluster has
// no edges and returns the site's summary at height 0.
func (c *Cluster) AggregateTree() (*core.Sketch, int, error) {
	level := make([]treeNode, len(c.sites))
	for i, s := range c.sites {
		level[i] = s
	}
	height := 0
	for ; len(level) > 1; height++ {
		nodes := make([]*Coordinator, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			var members []Site
			for j, child := range level[i:min(i+2, len(level))] {
				members = append(members, NewLocalSite(fmt.Sprintf("node-%d-%d", height, i+j), child))
			}
			co := New(members...)
			co.net = &c.net
			nodes = append(nodes, co)
		}
		if err := refreshAll(nodes); err != nil {
			return nil, 0, fmt.Errorf("coord: aggregation at height %d: %w", height, err)
		}
		level = make([]treeNode, len(nodes))
		for i, co := range nodes {
			level[i] = co
		}
	}
	root, err := level[0].Snapshot()
	return root, height, err
}

// treeNode is one node of the aggregation tree: a site sketch or a
// Coordinator over the level below.
type treeNode interface {
	DeltaSnapshotSource
	Snapshot() (*core.Sketch, error)
}

// refreshAll runs one Refresh of every node, GOMAXPROCS at a time: the
// nodes of one tree level are independent, and the merges are CPU-bound.
func refreshAll(nodes []*Coordinator) error {
	errs := make([]error, len(nodes))
	core.FanOut(len(nodes), runtime.GOMAXPROCS(0), func(i int) { errs[i] = nodes[i].Refresh() })
	return errors.Join(errs...)
}
