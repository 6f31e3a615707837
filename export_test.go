package ecmsketch

// Hooks the external tests reach through: they read the engine's view and
// stripes the way the in-package code does.

// StripeOf is the stripe that owns key.
func StripeOf(sh *Sharded, key uint64) int { return sh.stripeOf(key) }

// DropViewCache discards the published view, so the next global query
// rebuilds it.
func DropViewCache(sh *Sharded) {
	sh.rebuild.Lock()
	sh.view.Store(nil)
	sh.rebuild.Unlock()
}

// ViewParts returns the stripe parts of the view queries are answered from
// (building it if it is stale) and the clock it was built at.
func ViewParts(sh *Sharded) ([]*Sketch, Tick, error) {
	v, err := sh.queryView()
	if err != nil {
		return nil, 0, err
	}
	parts := make([]*Sketch, len(v.parts))
	for i, p := range v.parts {
		parts[i] = p.Sketch()
	}
	return parts, v.now, nil
}

// StripeCounts reports each stripe's cached arrival count beside its
// sketch's own.
func StripeCounts(sh *Sharded) (cached, actual []uint64) {
	for i := range sh.shards {
		s := &sh.shards[i]
		s.mu.Lock()
		cached = append(cached, s.count.Load())
		actual = append(actual, s.sk.Count())
		s.mu.Unlock()
	}
	return cached, actual
}
