package ecmsketch

import "ecmsketch/internal/standing"

// Standing queries: continuous predicates over the sliding window —
// threshold crossings, top-k membership changes, windowed rate-of-change —
// evaluated incrementally as mutations land and pushed to subscribers,
// instead of being polled for. See the internal/standing package
// documentation for the evaluation and delivery contract; ecmserver
// exposes the registry at both tiers over POST /v1/subscribe + GET /v1/watch
// (SSE), and ecmclient.Subscribe consumes it as a typed channel.
//
// Embedders hook a registry to an engine directly:
//
//	reg := ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{})
//	reg.Bind(engine)          // evaluation target; its Params fix the window
//	engine.SetNotifier(reg)   // change feed
//
// and consume notifications in-process via reg.Subscribe + reg.Attach.

// StandingQuery is one continuous query; StandingKind selects the
// predicate type.
type StandingQuery = standing.Query

// StandingKind names a standing-query predicate type.
type StandingKind = standing.Kind

// Standing-query predicate kinds.
const (
	StandingThreshold = standing.KindThreshold
	StandingTopK      = standing.KindTopK
	StandingRate      = standing.KindRate
	// StandingDropped marks client-side delivery-gap markers.
	StandingDropped = standing.KindDropped
)

// Notification is one fired standing-query event.
type Notification = standing.Notification

// NotificationItem is one ranked member of a top-k notification.
type NotificationItem = standing.Item

// StandingConfig configures a StandingRegistry.
type StandingConfig = standing.Config

// StandingRegistry holds standing queries, evaluates them incrementally
// (it is the canonical Notifier for Sharded engines, and accepts a
// coordinator's changed-cell feed via RefreshTarget), and fans fired
// notifications out to attached watchers with bounded queues.
type StandingRegistry = standing.Registry

// StandingWatcher is one delivery endpoint attached to a subscription.
type StandingWatcher = standing.Watcher

// StandingSubscription is the receipt of StandingRegistry.Subscribe.
type StandingSubscription = standing.SubscriptionInfo

// NewStandingRegistry builds an empty standing-query registry.
func NewStandingRegistry(cfg StandingConfig) *StandingRegistry {
	return standing.NewRegistry(cfg)
}
