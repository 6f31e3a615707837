package coord

// Self-organizing membership: sites join and leave a running coordinator
// (AddSite / RemoveSite), and a health record per member drives exclusion
// and re-admission — a flapping site backs off
// exponentially instead of stalling every round, and one successful probe
// restores it. Membership changes take effect on the next pull round; the
// incremental root detects the contributor-set change and rebuilds itself
// in place (see Refresh).

import "sync"

// member is one site's coordinator-side state: the delta receiver plus the
// health record driving exclusion and re-admission.
type member struct {
	site Site
	st   siteDeltaState

	// Health, guarded by hmu: consecutive failures and the backoff horizon
	// (the round number up to which pulls skip this member).
	hmu       sync.Mutex
	fails     int
	skipUntil uint64
	lastErr   string
}

// maxBackoffRounds caps the exponential failure backoff: a site that keeps
// flapping is probed at least once every 32 rounds rather than decaying out
// of rotation entirely.
const maxBackoffRounds = 32

func (m *member) backedOff(round uint64) bool {
	m.hmu.Lock()
	defer m.hmu.Unlock()
	return round <= m.skipUntil
}

func (m *member) noteSuccess() {
	m.hmu.Lock()
	m.fails, m.skipUntil, m.lastErr = 0, 0, ""
	m.hmu.Unlock()
}

func (m *member) noteFailure(round uint64, err error) {
	m.hmu.Lock()
	m.fails++
	back := uint64(maxBackoffRounds)
	if m.fails <= 6 {
		back = uint64(1) << (m.fails - 1) // 1, 2, 4, 8, 16, 32
	}
	m.skipUntil = round + back
	m.lastErr = err.Error()
	m.hmu.Unlock()
}

// AddSite admits a site into the membership, effective on the next pull
// round. A member with the same name is replaced — a re-registration drops
// the old receiver baseline and health record, so the next pull
// re-bootstraps the site from a full baseline.
func (c *Coordinator) AddSite(s Site) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nm := &member{site: s}
	for i, m := range c.members {
		if m.site.Name() == s.Name() {
			c.members[i] = nm
			return
		}
	}
	c.members = append(c.members, nm)
}

// RemoveSite removes the member named name, reporting whether it existed.
// A round already in flight still counts the site; the next one does not,
// and the incremental root rebuilds without its contribution.
func (c *Coordinator) RemoveSite(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.members {
		if m.site.Name() == name {
			c.members = append(c.members[:i], c.members[i+1:]...)
			return true
		}
	}
	return false
}

// SiteStatus is one member's health as of the last pull round it took part
// in. BackoffRounds is how many rounds remain before the next probe; zero
// means the site is in rotation.
type SiteStatus struct {
	Name          string
	Healthy       bool
	Failures      int
	BackoffRounds uint64
	LastError     string
	HasBaseline   bool
}

// SiteStatuses reports every member's health, in membership order. It may
// block briefly behind an in-flight pull round (the baseline probe shares
// the receiver locks).
func (c *Coordinator) SiteStatuses() []SiteStatus {
	c.mu.RLock()
	members := make([]*member, len(c.members))
	copy(members, c.members)
	round := c.round
	c.mu.RUnlock()
	out := make([]SiteStatus, len(members))
	for i, m := range members {
		m.hmu.Lock()
		st := SiteStatus{
			Name:      m.site.Name(),
			Healthy:   m.fails == 0,
			Failures:  m.fails,
			LastError: m.lastErr,
		}
		if m.skipUntil > round {
			st.BackoffRounds = m.skipUntil - round
		}
		m.hmu.Unlock()
		m.st.mu.Lock()
		st.HasBaseline = m.st.ds.HasBaseline()
		m.st.mu.Unlock()
		out[i] = st
	}
	return out
}
