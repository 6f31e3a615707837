package geom

import "ecmsketch/internal/cm"

// Balancing (Sharfman et al., Section 5 of the geometric-method paper) is
// the standard optimization layered on the basic protocol: when one site's
// sphere test fails, the coordinator first tries to pair the violating site
// with a few peers and average their drift vectors. If the sphere built
// from the *balanced* vector is single-sided, the involved sites absorb
// slack vectors that move their drifts to the common average, and the
// violation is resolved with O(|group|) messages instead of a full
// synchronization of every site.
//
// Correctness: the global statistics vector is the average of all drift
// vectors; replacing a subset of drifts by their mean preserves that
// average, so the convex-hull/sphere-cover argument of the method is
// unaffected. Slack vectors always sum to zero across sites.

// balance attempts to resolve a violation at site v without a global sync.
// It returns true on success. Communication is charged per vector moved:
// each enlisted peer ships its drift to the coordinator and receives a
// slack update back.
func (m *Monitor) balance(v *Site, t Tick) bool {
	if !m.cfg.Balancing || len(m.sites) < 2 {
		return false
	}
	m.stats.BalanceAttempts++
	group := []*Site{v}
	sum := m.drift(v)
	vecBytes := len(sum.Marshal())
	// The violator's drift travels to the coordinator.
	m.stats.MessagesSent++
	m.stats.BytesSent += vecBytes
	for _, peer := range m.sites {
		if peer == v {
			continue
		}
		// Enlist the peer: its drift travels to the coordinator.
		group = append(group, peer)
		sum.AddScaled(m.drift(peer), 1)
		m.stats.MessagesSent++
		m.stats.BytesSent += vecBytes
		b := sum.Clone().Scale(1 / float64(len(group)))
		if m.sphereSafe(b) {
			m.applyBalance(group, b, vecBytes)
			m.stats.BalanceSuccesses++
			return true
		}
	}
	return false // every site enlisted and still unsafe: full sync needed
}

// drift computes a site's current drift vector u_i = e + Δv_i + slack_i.
func (m *Monitor) drift(s *Site) *cm.Vector {
	cur := s.vector(m.cfg.QueryRange)
	u := cur.Clone().Sub(s.lastSync).AddScaled(m.estimate, 1)
	if s.slack != nil {
		u.AddScaled(s.slack, 1)
	}
	return u
}

// sphereSafe tests whether the sphere with diameter [e, u] keeps the
// function on the currently recorded side of the threshold.
func (m *Monitor) sphereSafe(u *cm.Vector) bool {
	center := m.estimate.Clone().AddScaled(u, 1).Scale(0.5)
	radius := m.estimate.Dist(u) / 2
	lo, hi := m.cfg.Function.BoundsOnBall(center, radius)
	if m.stats.ThresholdAbove {
		return lo > m.cfg.Threshold
	}
	return hi <= m.cfg.Threshold
}

// applyBalance assigns each group member the slack that moves its drift to
// the balanced vector b. Slacks remain zero-sum: Σ_j (b − u_j) = |G|·b −
// Σ u_j = 0 by construction of b.
func (m *Monitor) applyBalance(group []*Site, b *cm.Vector, vecBytes int) {
	for _, s := range group {
		u := m.drift(s)
		delta := b.Clone().Sub(u)
		if s.slack == nil {
			s.slack = delta
		} else {
			s.slack.AddScaled(delta, 1)
		}
		// The coordinator ships the slack update back to the site.
		m.stats.MessagesSent++
		m.stats.BytesSent += vecBytes
	}
}

// clearSlacks resets all slack vectors; called on every global
// synchronization, which re-baselines the drifts.
func (m *Monitor) clearSlacks() {
	for _, s := range m.sites {
		s.slack = nil
	}
}
