package geom

// PairMonitor runs the geometric method over TWO streams observed at every
// site, monitoring a function of the concatenated global vectors — in
// particular the inner-product (join size) between the streams via
// InnerProductFn. This is the "additional function types" direction the
// paper leaves as ongoing work in Section 6.2.
//
// Each site keeps one ECM-sketch per stream; its local statistics vector is
// [va ‖ vb]. Everything else — drift vectors, spheres, balancing,
// synchronizations — is Monitor's protocol on the doubled vector space.
type PairMonitor struct {
	mon *Monitor
}

// NewPairMonitor builds a two-stream deployment of n sites. cfg.Function
// defaults to InnerProductFn when unset.
func NewPairMonitor(cfg Config, n int) (*PairMonitor, error) {
	if cfg.Function == nil {
		cfg.Function = InnerProductFn{}
	}
	mon, err := newMonitor(cfg, n, 2)
	if err != nil {
		return nil, err
	}
	return &PairMonitor{mon: mon}, nil
}

// Stats returns a copy of the accumulated statistics.
func (m *PairMonitor) Stats() Stats { return m.mon.Stats() }

// Stream selects which of a site's streams an update belongs to.
type Stream uint8

// The two monitored streams.
const (
	StreamA Stream = iota
	StreamB
)

// Update feeds one arrival of stream st at site idx and runs the local
// constraint check. It reports whether a synchronization happened.
func (m *PairMonitor) Update(idx int, st Stream, key uint64, t Tick) (bool, error) {
	return m.mon.update(idx, int(st), key, t)
}

// Advance moves both windows of every site to tick t and re-checks
// constraints, so a crossing caused by expiry alone is detected without
// waiting for the next arrival. It reports whether a synchronization
// happened.
func (m *PairMonitor) Advance(t Tick) bool { return m.mon.Advance(t) }

// GlobalValue computes the monitored function on the true average of the
// concatenated site vectors, for verification.
func (m *PairMonitor) GlobalValue(t Tick) float64 { return m.mon.GlobalValue(t) }
