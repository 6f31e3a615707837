// Package standing is the continuous-query subsystem of the repository:
// a registry of standing queries over a sliding-window sketch engine —
// threshold crossings on window counts and top-k membership/rank changes —
// evaluated incrementally as mutations land, and a bounded fan-out hub
// pushing the resulting notifications to any number of subscribers over
// Server-Sent Events.
//
// # Incremental evaluation
//
// The pull-based query surface answers "what is the count now"; a standing
// query answers "tell me when the count crosses X" without anyone polling.
// The evaluator never rebuilds a merged view and never scans the key
// universe. Instead it is driven by the engine's own change feed:
//
//   - On an ingest engine (Sharded), every mutation path notes the touched
//     keys (the Notifier hook). Keys map to their d Count-Min cells, and
//     only predicates whose cells intersect the touched set are re-checked
//     — which also catches crossings caused by hash collisions, where
//     another key's arrivals inflate a watched key's estimate.
//   - On a coordinator, the delta-snapshot protocol's cell-replacement
//     stream (core.DeltaState) reports exactly which cells changed since
//     the previous pull; predicates are re-checked by cell intersection
//     after each refresh.
//   - A pure clock advance (expiry, no arrivals) re-checks only the
//     predicates it can affect: estimates of untouched keys are
//     non-increasing under expiry, so a below-threshold predicate cannot
//     rise and is skipped; armed (above-threshold) predicates and top-k
//     predicates are re-checked. (For EH the monotonicity argument holds
//     cell by cell. DW estimates can *rise* when expiry pops a wave
//     position, but the engines report every expiry-mutated cell through
//     the same change feed as arrivals —
//     core.Sketch advances its banks with window.AdvanceAll — so such
//     cells are "touched", never skipped, and the fast path stays safe.
//     Randomized waves resample at level switches, which perturbs
//     untouched cells' estimates without mutating them; a registry bound
//     to a target whose Params name the randomized-wave algorithm skips
//     nothing.)
//
// Evaluation runs synchronously on the mutating goroutine — after the
// engine's own locks are released — so the fired crossings are a
// deterministic function of the batch sequence (the oracle-equivalence
// tests pin this). Delivery is asynchronous: firing appends to a
// per-subscription ring and does a non-blocking send to each attached
// watcher, so a slow subscriber drops notifications (surfaced to it as a
// gap marker) rather than ever blocking ingest.
//
// # Delivery contract
//
// At-least-once per crossing: every fired crossing reaches every attached
// watcher that keeps up, and survives reconnection via the per-subscription
// sequence number (resume replays from the retained ring). A watcher that
// falls behind its buffered queue, or resumes past the ring horizon, loses
// the oldest notifications and receives an explicit dropped marker naming
// how many it missed — never silently.
package standing

import (
	"fmt"

	"ecmsketch/internal/core"
)

// Kind names a standing-query predicate type.
type Kind uint8

const (
	// KindThreshold fires when a key's windowed estimate crosses Value:
	// on the rising edge (below → at-or-above), or on the falling edge
	// when Below is set.
	KindThreshold Kind = iota + 1
	// KindTopK fires when the top-K membership over the candidate set
	// changes (or, with RankChanges, when the rank order changes).
	KindTopK

	// KindDropped is never stored by the registry; it is the client-side
	// representation of a delivery gap marker (see Notification.Missed).
	KindDropped Kind = 0xFF
)

// String names the kind on the wire ("threshold", "topk").
func (k Kind) String() string {
	switch k {
	case KindThreshold:
		return "threshold"
	case KindTopK:
		return "topk"
	case KindDropped:
		return "dropped"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// parseKind is String's inverse for the subscribe wire format.
func parseKind(s string) (Kind, error) {
	switch s {
	case "threshold":
		return KindThreshold, nil
	case "topk":
		return KindTopK, nil
	}
	return 0, fmt.Errorf("unknown query kind %q (want threshold or topk)", s)
}

// Query is one standing query. Zero Range means the registry's default
// window (the engine's whole window).
type Query struct {
	Kind Kind
	// Key is the watched item of a threshold query.
	Key uint64
	// Range is the window suffix (in ticks) the predicate evaluates over.
	Range core.Tick
	// Value is the threshold level (KindThreshold, required positive).
	Value float64
	// Below makes a threshold query fire on the falling edge instead.
	Below bool
	// K is the membership size of a top-k query.
	K int
	// Keys is the explicit candidate watchlist of a top-k query. Optional
	// on ingest engines, where omitting it learns the candidates from the
	// keys each batch touches — the site's hot-key tracker; required on
	// coordinator surfaces, which observe cell deltas, never raw keys.
	Keys []uint64
	// RankChanges additionally fires top-k on rank-order changes among
	// unchanged membership.
	RankChanges bool
}

// maxTopKCandidates bounds K and explicit watchlists. A learned candidate
// set is bounded by its query instead: at most 8·K after each evaluation.
const maxTopKCandidates = 4096

// validate rejects malformed queries at registration, not at evaluation.
func (q Query) validate(requireKeys bool) error {
	switch q.Kind {
	case KindThreshold:
		if !(q.Value > 0) {
			return fmt.Errorf("threshold query needs a positive value, got %v", q.Value)
		}
	case KindTopK:
		if q.K <= 0 || q.K > maxTopKCandidates {
			return fmt.Errorf("top-k query needs k in [1,%d], got %d", maxTopKCandidates, q.K)
		}
		if len(q.Keys) > maxTopKCandidates {
			return fmt.Errorf("top-k watchlist holds %d keys, at most %d", len(q.Keys), maxTopKCandidates)
		}
		if requireKeys && len(q.Keys) == 0 {
			return fmt.Errorf("top-k queries on this surface need an explicit keys watchlist (coordinators see cell deltas, not raw keys)")
		}
	default:
		return fmt.Errorf("unknown query kind %d", q.Kind)
	}
	return nil
}

// Item is one ranked member of a top-k notification.
type Item struct {
	Key      uint64
	Estimate float64
}

// Notification is one fired standing-query event. Seq is the
// per-subscription sequence number (1-based, gap-free per subscription) the
// resume protocol is built on; At is the wall-clock fire time in Unix
// nanoseconds, carried for delivery-latency measurement and not part of the
// deterministic evaluation contract.
type Notification struct {
	Seq    uint64
	Query  uint64
	Kind   Kind
	Key    uint64
	Value  float64
	Prev   float64
	Rising bool
	Now    core.Tick
	At     int64
	// Top, Entered, Left carry top-k results: the current membership in
	// rank order and the keys that entered/left since the last firing.
	Top     []Item
	Entered []uint64
	Left    []uint64
	// Missed is non-zero only on client-side gap markers (KindDropped):
	// the number of notifications lost to a slow consumer or an
	// out-of-horizon resume.
	Missed uint64
}

// Target is what the evaluator needs from the engine it watches: point
// estimates, the clock, and the parameters that fix the default query
// range (WindowLength) and the advance re-check policy (Algorithm).
// Sharded and *core.Sketch (a coordinator's merged root) satisfy it.
type Target interface {
	Estimate(key uint64, r core.Tick) float64
	Now() core.Tick
	Params() core.Params
}

// CellIndexer is the optional half of the target contract that makes
// evaluation cell-granular: it maps a key to the d Count-Min cells its
// estimate is read from. Targets without it degrade to re-checking every
// predicate whenever anything was touched — correct, never required.
type CellIndexer interface {
	CellIndices(key uint64, dst []int) []int
}

// Config configures a Registry.
type Config struct {
	// RequireKeys makes top-k queries demand an explicit watchlist —
	// set on coordinator surfaces, which never observe raw keys.
	RequireKeys bool
}

const (
	// defaultRingSize is the per-subscription replay buffer: notifications
	// retained for reconnect-with-resume. Registry.SetLimits overrides it.
	defaultRingSize = 1024
	// defaultQueueSize is the per-watcher buffered delivery queue; a watcher
	// whose queue is full drops (and later sees a gap marker).
	// Registry.SetLimits overrides it.
	defaultQueueSize = 256
	// maxSubscriptions bounds registry memory: Subscribe refuses past it.
	maxSubscriptions = 16384
)
