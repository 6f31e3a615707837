package geom

import (
	"errors"
	"fmt"

	"ecmsketch/internal/cm"
	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// Tick re-exports the logical timestamp type.
type Tick = window.Tick

// Config configures a monitoring deployment.
type Config struct {
	// Sketch configures each site's local ECM-sketch. All sites share it.
	Sketch core.Params
	// QueryRange is the sliding-window sub-range r the monitored function is
	// evaluated over.
	QueryRange Tick
	// Function is the monitored function f.
	Function Function
	// Threshold is the value T whose crossings f(global vector) is monitored
	// for.
	Threshold float64
	// CheckEvery throttles local constraint checks to once per this many
	// arrivals per site (1 = check on every arrival). Extraction of the
	// local vector costs O(d·w) counter queries, so real deployments batch.
	CheckEvery int
	// Balancing enables the pairwise violation-resolution optimization of
	// Sharfman et al.: a local violation first tries to cancel against
	// peers' opposite drifts before forcing a full synchronization.
	Balancing bool
}

// Stats accumulates the communication accounting the experiments report.
type Stats struct {
	Updates          int     // stream arrivals processed
	LocalChecks      int     // sphere tests performed
	Violations       int     // local constraint violations raised
	Syncs            int     // full synchronizations triggered
	BalanceAttempts  int     // violations the balancing optimization tried to absorb
	BalanceSuccesses int     // violations resolved without a full sync
	MessagesSent     int     // site→coordinator and coordinator→site messages
	BytesSent        int     // total payload bytes shipped
	ThresholdAbove   bool    // current side of the threshold
	Crossings        int     // detected threshold crossings
	FunctionValue    float64 // f(e) after the last synchronization
}

// Site is one stream-observing node participating in the monitoring
// protocol. It owns one local ECM-sketch per monitored stream (one, or two
// under a PairMonitor) and its statistics vector from the last
// synchronization.
type Site struct {
	id       int
	sketches []*core.Sketch
	lastSync *cm.Vector // v_i at the last synchronization
	slack    *cm.Vector // zero-sum balancing adjustment, nil when unused
	sinceChk int
}

// Sketch exposes the site's local sketch — its first stream's — e.g. to
// feed it externally.
func (s *Site) Sketch() *core.Sketch { return s.sketches[0] }

// vector extracts the site's local statistics vector over the last r ticks:
// the sketch's own for one stream, the concatenation [va ‖ vb] for two.
func (s *Site) vector(r Tick) *cm.Vector {
	v := s.sketches[0].ExtractVector(r)
	if len(s.sketches) == 2 {
		v = ConcatVectors(v, s.sketches[1].ExtractVector(r))
	}
	return v
}

// advance moves the window of every local sketch to tick t.
func (s *Site) advance(t Tick) {
	for _, sk := range s.sketches {
		sk.Advance(t)
	}
}

// ID reports the site index.
func (s *Site) ID() int { return s.id }

// Monitor is the coordinator of the geometric monitoring protocol,
// orchestrating n sites in-process. The transport is simulated; the
// accounting (messages, bytes) is what a networked deployment would pay.
type Monitor struct {
	cfg      Config
	sites    []*Site
	estimate *cm.Vector // global estimate vector e
	stats    Stats
}

// NewMonitor builds a deployment of n sites.
func NewMonitor(cfg Config, n int) (*Monitor, error) {
	if cfg.Function == nil {
		return nil, errors.New("geom: Function must be set")
	}
	return newMonitor(cfg, n, 1)
}

// newMonitor builds a deployment of n sites observing the given number of
// streams each.
func newMonitor(cfg Config, n, streams int) (*Monitor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("geom: need at least one site, got %d", n)
	}
	if cfg.QueryRange == 0 {
		cfg.QueryRange = cfg.Sketch.WindowLength
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1
	}
	m := &Monitor{cfg: cfg}
	for i := 0; i < n; i++ {
		s := &Site{id: i}
		for st := 0; st < streams; st++ {
			sk, err := core.New(cfg.Sketch)
			if err != nil {
				return nil, fmt.Errorf("geom: site %d stream %d: %w", i, st, err)
			}
			s.sketches = append(s.sketches, sk)
		}
		m.sites = append(m.sites, s)
	}
	// Initialize with an explicit synchronization so every site holds e.
	m.synchronize(0)
	return m, nil
}

// Sites returns the participating sites.
func (m *Monitor) Sites() []*Site { return m.sites }

// Stats returns a copy of the accumulated statistics.
func (m *Monitor) Stats() Stats { return m.stats }

// Estimate returns the current global estimate vector e.
func (m *Monitor) Estimate() *cm.Vector { return m.estimate.Clone() }

// Update feeds one arrival (item key at tick t) observed by site idx, runs
// the site's local constraint check, and synchronizes if the check cannot
// rule out a threshold crossing. It reports whether a synchronization
// happened.
func (m *Monitor) Update(idx int, key uint64, t Tick) (synced bool, err error) {
	return m.update(idx, 0, key, t)
}

// update is Update for an arrival of the site's stream st.
func (m *Monitor) update(idx, st int, key uint64, t Tick) (synced bool, err error) {
	if idx < 0 || idx >= len(m.sites) {
		return false, fmt.Errorf("geom: site %d out of range", idx)
	}
	s := m.sites[idx]
	if st >= len(s.sketches) {
		return false, errors.New("geom: unknown stream")
	}
	s.sketches[st].Add(key, t)
	m.stats.Updates++
	s.sinceChk++
	if s.sinceChk < m.cfg.CheckEvery {
		return false, nil
	}
	s.sinceChk = 0
	if m.checkLocal(s, t) {
		return false, nil
	}
	m.stats.Violations++
	if m.balance(s, t) {
		return false, nil
	}
	m.synchronize(t)
	return true, nil
}

// Advance moves every site's window to tick t and re-checks constraints
// (window expiry shrinks counters, which can also cross the threshold).
// It reports whether a synchronization happened.
func (m *Monitor) Advance(t Tick) bool {
	synced := false
	for _, s := range m.sites {
		s.advance(t)
	}
	for _, s := range m.sites {
		if !m.checkLocal(s, t) {
			m.stats.Violations++
			m.synchronize(t)
			synced = true
			break
		}
	}
	return synced
}

// checkLocal runs the sphere test for one site: construct the drift vector
// u_i = e + (v_i(t) − v_i(sync)) + slack_i, form the sphere with diameter
// [e, u_i], and test whether the function is single-sided over it. Returns
// true when the site can stay silent.
func (m *Monitor) checkLocal(s *Site, t Tick) bool {
	m.stats.LocalChecks++
	return m.sphereSafe(m.drift(s))
}

// synchronize collects every site's current local vector, recomputes the
// global estimate (their average), redistributes it, and re-evaluates the
// function side. Communication is charged per the vector encodings shipped.
func (m *Monitor) synchronize(t Tick) {
	n := len(m.sites)
	var avg *cm.Vector
	for _, s := range m.sites {
		v := s.vector(m.cfg.QueryRange)
		s.lastSync = v
		m.stats.MessagesSent++
		m.stats.BytesSent += len(v.Marshal())
		if avg == nil {
			avg = v.Clone()
		} else {
			avg.AddScaled(v, 1)
		}
	}
	avg.Scale(1 / float64(n))
	m.estimate = avg
	m.clearSlacks()
	// Broadcast e back to the sites.
	m.stats.MessagesSent += n
	m.stats.BytesSent += n * len(avg.Marshal())
	m.stats.Syncs++
	val := m.cfg.Function.Value(avg)
	above := val > m.cfg.Threshold
	if m.stats.Syncs > 1 && above != m.stats.ThresholdAbove {
		m.stats.Crossings++
	}
	m.stats.ThresholdAbove = above
	m.stats.FunctionValue = val
}

// GlobalValue computes the exact current value of the monitored function on
// the true average of the site vectors — the quantity the protocol tracks
// without centralizing. Exposed for verification and experiments.
func (m *Monitor) GlobalValue(t Tick) float64 {
	var avg *cm.Vector
	for _, s := range m.sites {
		s.advance(t)
		v := s.vector(m.cfg.QueryRange)
		if avg == nil {
			avg = v
		} else {
			avg.AddScaled(v, 1)
		}
	}
	avg.Scale(1 / float64(len(m.sites)))
	return m.cfg.Function.Value(avg)
}

// NaiveSyncBytes estimates what a naive protocol — every site ships its
// vector to the coordinator on every arrival — would have transferred for
// the same number of updates. Used to report communication savings.
func (m *Monitor) NaiveSyncBytes() int {
	if len(m.sites) == 0 {
		return 0
	}
	vecBytes := len(m.sites[0].vector(m.cfg.QueryRange).Marshal())
	return m.stats.Updates * vecBytes
}
