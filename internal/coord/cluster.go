package coord

import (
	"fmt"
	"sync"

	"ecmsketch/internal/core"
	"ecmsketch/internal/workload"
)

// Cluster simulates the paper's distributed deployments in one process: n
// sites each observe a local sub-stream and summarize it in an ECM-sketch,
// and AggregateTree merges them through the same Coordinator a networked
// deployment runs. Sites are goroutines consuming their own channels, which
// carry event batches, not single events: feeding batched keeps the channel
// traffic (and, inside each site, the per-arrival call overhead)
// proportional to batches rather than arrivals.
type Cluster struct {
	sites   []*core.Sketch
	chans   []chan []workload.Event
	wg      sync.WaitGroup
	net     Network
	started bool
}

// NewCluster builds n sites with identically configured (and hence
// mergeable) ECM-sketches. Randomized-wave sketches receive distinct
// identifier salts so their auto-generated event identifiers stay globally
// unique.
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
		s.SetIDSalt(0x5151_0000_0000_0001 * uint64(i+1))
		c.sites = append(c.sites, s)
	}
	return c, nil
}

// Sites exposes the local sketches (after Wait, for inspection).
func (c *Cluster) Sites() []*core.Sketch { return c.sites }

// Network exposes the communication accounting.
func (c *Cluster) Network() *Network { return &c.net }

// Start launches one goroutine per site, each consuming its own event
// channel into its local sketch.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.chans = make([]chan []workload.Event, len(c.sites))
	for i := range c.sites {
		c.chans[i] = make(chan []workload.Event, 64)
		c.wg.Add(1)
		go func(idx int) {
			defer c.wg.Done()
			s := c.sites[idx]
			var buf []core.Event
			for batch := range c.chans[idx] {
				buf = buf[:0]
				for _, ev := range batch {
					buf = append(buf, core.Event{Key: ev.Key, Tick: ev.Time, N: 1})
				}
				s.AddBatch(buf)
			}
		}(i)
	}
}

// Feed routes one event to its site (ev.Site modulo the cluster size).
func (c *Cluster) Feed(ev workload.Event) {
	c.chans[ev.Site%len(c.sites)] <- []workload.Event{ev}
}

// FeedBatch routes a batch of events, grouping them per site so each site
// channel receives at most one message for the whole batch. Per-site event
// order follows slice order.
func (c *Cluster) FeedBatch(events []workload.Event) {
	groups := make([][]workload.Event, len(c.sites))
	for _, ev := range events {
		idx := ev.Site % len(c.sites)
		groups[idx] = append(groups[idx], ev)
	}
	for i, g := range groups {
		if len(g) > 0 {
			c.chans[i] <- g
		}
	}
}

// Wait closes the site channels and blocks until every site has drained its
// stream, then aligns all site windows to the given tick.
func (c *Cluster) Wait(now core.Tick) {
	for _, ch := range c.chans {
		close(ch)
	}
	c.wg.Wait()
	c.started = false
	for _, s := range c.sites {
		s.Advance(now)
	}
}

// ingestChunk is the batch size IngestAll slices a pre-generated stream
// into before routing it to the sites.
const ingestChunk = 512

// IngestAll runs the full pipeline for a pre-generated stream: start the
// sites, feed every event in site-grouped batches, and wait for
// completion. It returns the final stream tick.
func (c *Cluster) IngestAll(events []workload.Event) core.Tick {
	c.Start()
	var now core.Tick
	for _, ev := range events {
		if ev.Time > now {
			now = ev.Time
		}
	}
	for off := 0; off < len(events); off += ingestChunk {
		end := off + ingestChunk
		if end > len(events) {
			end = len(events)
		}
		c.FeedBatch(events[off:end])
	}
	c.Wait(now)
	return now
}

// AggregateTree merges the site sketches bottom-up over a balanced binary
// tree of height ⌈log₂ n⌉, as in the distributed experiments: each site
// becomes a LocalSite of a Coordinator charging the cluster's Network, so
// the per-edge accounting (one message per aggregation edge, odd nodes
// re-charged as they are promoted) and the root are exactly what a
// coordinator pulling the same sites over HTTP computes. The root sketch
// summarizing the union stream is returned together with the tree height.
func (c *Cluster) AggregateTree() (*core.Sketch, int, error) {
	sites := make([]Site, len(c.sites))
	for i, s := range c.sites {
		sites[i] = NewLocalSite(fmt.Sprintf("site-%d", i), s)
	}
	co := New(sites...)
	co.net = &c.net
	return co.AggregateTree()
}
