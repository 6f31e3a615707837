package ecmsketch

import "ecmsketch/internal/core"

// Event is one stream arrival in batched form: a key observed at a tick,
// with an optional multiplicity (N == 0 counts as 1). Batches are the unit
// of ingest amortization: one AddBatch call takes each internal lock once
// for the whole slice instead of once per arrival, and is the natural unit
// for future asynchronous pipelines.
type Event = core.Event

// Ingestor is the write side of every sketch front end in this library:
// the plain Sketch, the mutex-guarded SafeSketch, the lock-striped Sharded
// engine, and the remote ecmclient.Client all satisfy it, so ingest
// pipelines can be written once against the interface and pointed at any
// of them.
//
// # Tick clamping contract
//
// Ticks must be non-decreasing per Ingestor. Rather than rejecting bad
// input, every ingest path validates and clamps it — this is the single
// authoritative statement of how:
//
//   - Ticks are 1-based. Tick 0 means "before the stream" and is clamped
//     to 1.
//   - Single-event paths (Add, AddN, AddString) pass the tick through to
//     the counters it lands in; a tick that regresses behind a counter's
//     own clock is clamped forward to that clock, biasing the arrival
//     slightly newer instead of dropping it. (Merged streams from loosely
//     synchronized sites interleave slightly out of order; see Reorderer
//     for bounded-buffer resequencing when that bias matters.)
//   - AddBatch validates once per batch, not once per counter update: each
//     event's tick is clamped to the running maximum of the batch and to
//     the engine clock at batch entry, so the applied sequence is
//     non-decreasing engine-wide. Every front end applies the same rule,
//     which is why identical batch streams produce identical answers from
//     Sketch, SafeSketch and Sharded.
type Ingestor interface {
	// Add registers one arrival of key at tick t.
	Add(key uint64, t Tick)
	// AddN registers n arrivals of key at tick t.
	AddN(key uint64, t Tick, n uint64)
	// AddString registers one arrival of a string-keyed item (digested via
	// KeyString).
	AddString(key string, t Tick)
	// AddBatch registers a slice of arrivals in one call, applied in slice
	// order under the batch clamping contract above.
	AddBatch(events []Event)
	// Advance moves the window clock forward without an arrival.
	Advance(t Tick)
}

// Notifier receives change notes from a mutating engine — the hook the
// standing-query subsystem evaluates incrementally off. Sharded delivers
// notes synchronously on the mutating goroutine, after its own locks are
// released, so a notifier may query the engine; implementations must not
// block (the StandingRegistry evaluates under one mutex and hands delivery
// to bounded queues).
type Notifier interface {
	// NoteEvents notes a landed batch (a one-event batch for single-event
	// ingest); the slice must not be retained.
	NoteEvents(events []Event)
	// NoteAdvance notes a pure clock advance (expiry only, no arrivals).
	NoteAdvance()
}

// Querier is the read side: sliding-window point, self-join, inner-product
// and total-count queries over any suffix of the window (the last r ticks).
// All local implementations answer within the paper's (ε, δ) guarantees;
// the remote client forwards the server's answers unchanged.
type Querier interface {
	// Estimate answers a point query for key over the last r ticks.
	Estimate(key uint64, r Tick) float64
	// EstimateString answers a point query for a string key.
	EstimateString(key string, r Tick) float64
	// InnerProduct estimates the inner product against another sketch's
	// stream over the last r ticks. The other sketch must be compatible
	// (same dimensions, seed and window configuration).
	InnerProduct(other *Sketch, r Tick) (float64, error)
	// SelfJoin estimates the second frequency moment F₂ over the last r
	// ticks.
	SelfJoin(r Tick) float64
	// EstimateTotal estimates ‖a_r‖₁, the total arrival count over the last
	// r ticks.
	EstimateTotal(r Tick) float64
	// Now reports the latest tick observed.
	Now() Tick
}

// QueryBatch is a multi-key sliding-window query request — the read-side
// counterpart of the Event batch on ingest: point estimates for every key in
// Keys plus an optional total count and self-join size, all answered from
// one consistent cut of the stream over the same window suffix.
//
// Consistency is the point. On a concurrent engine, a sequence of single-key
// Estimate calls interleaves with writers and each call may observe a
// different stream state; a QueryBatch is evaluated against one snapshot.
// On the Sharded engine every answer in the batch — including the point
// estimates — comes from the Theorem-4 merged view, so point answers carry
// the view's (slightly inflated) merge error in exchange for the consistent
// cut; latency-insensitive single-key lookups that prefer the zero-merge-
// error path should keep using Estimate, which routes to the key's stripe.
type QueryBatch = core.QueryBatch

// QueryResult answers a QueryBatch: per-key estimates in request order, the
// optional aggregates, and the engine clock (Now) the cut was taken at.
type QueryResult = core.QueryResult

// BatchQuerier is the batched read side: multi-key point queries plus
// optional aggregates answered from one consistent snapshot. Implemented by
// every sketch front end — Sketch, SafeSketch, Sharded, and the remote
// ecmclient.Client (which answers via one POST /v1/query round trip).
type BatchQuerier interface {
	// QueryBatch answers a multi-key query from one consistent cut. The
	// error is always nil on local single-sketch backends; the sharded
	// engine reports merged-view build failures and the remote client
	// reports transport failures.
	QueryBatch(q QueryBatch) (QueryResult, error)
}

// DirectQuerier is the zero-merge read side: multi-key point queries where
// each key is answered from the single stripe that owns it, with no merged
// view built or consulted. The trade against QueryBatch is explicit:
//
//   - zero merge error (each key's cells are read where its arrivals
//     landed) and no rebuild cost on the read path, but
//   - no consistency across the batch — on a concurrent engine the
//     per-stripe answers form an inconsistent cut that writers may
//     interleave with, and
//   - point queries only: Total/SelfJoin aggregates need the merged view
//     and are rejected.
//
// On single-sketch backends (Sketch, SafeSketch) direct and batched point
// answers coincide. Implemented by every front end; the remote client
// forwards to POST /v1/query?direct=1.
type DirectQuerier interface {
	QueryDirect(q QueryBatch) (QueryResult, error)
}

// Snapshotter produces merge-ready summaries: the wire encoding consumed by
// Unmarshal/Merge, and a decoded independent copy. A Sharded engine and a
// remote Client synthesize their snapshot by merging (resp. fetching) on
// demand, so Snapshot can be more expensive than on a plain Sketch.
type Snapshotter interface {
	// Marshal serializes the (merged) sketch state.
	Marshal() []byte
	// Snapshot returns an independent *Sketch copy of the current state.
	Snapshot() (*Sketch, error)
}

// Cursor names a producer state in the delta-snapshot protocol: the
// producing engine instance (a process-random epoch) plus one
// arrival-mutation version per part — a single version for Sketch and
// SafeSketch, one per stripe for Sharded. Cursors are opaque to pullers:
// obtained from one DeltaSnapshot, echoed on the next. String/ParseCursor
// give the URL-safe wire form (?since= and X-Ecm-Cursor on the HTTP API).
type Cursor = core.Cursor

// ParseCursor decodes Cursor.String output; "" and "0" are the zero cursor
// ("no baseline, send me a full snapshot").
func ParseCursor(s string) (Cursor, error) { return core.ParseCursor(s) }

// DeltaState is the receiving half of the delta-snapshot protocol: it holds
// one producer's parts, applies DeltaSnapshot payloads (full or
// incremental), and materializes the combined summary on demand. The
// Coordinator keeps one per site when delta pulls are enabled; it is
// exported for custom pull loops.
type DeltaState = core.DeltaState

// DeltaSnapshotter is the cursor-based incremental side of the snapshot
// contract. DeltaSnapshot(since) returns the bytes that carry a puller
// holding the state named by since to the current state:
//
//   - full == false: an incremental delta — only the cells (and, on the
//     sharded engine, only the stripes) whose version moved since the
//     cursor, plus the clock that lets the receiver replay expiry. An idle
//     engine answers with a few-byte empty delta.
//   - full == true: a complete snapshot, returned whenever since is not
//     recognized (zero cursor, another engine instance's epoch after a
//     restart or reconfiguration, versions from the future). Pullers
//     re-baseline from it; nothing is ever assumed about the puller.
//
// The returned cursor names the state the payload brings the puller to and
// is what the puller presents next time. Payloads are applied with
// DeltaState. Implemented by Sketch, SafeSketch, Sharded, Coordinator and
// the remote ecmclient.Client (which forwards to GET /v1/snapshot?since=).
//
// Every DeltaSnapshotter is also a valid in-process coordinator site: wrap
// it with NewLocalSite and a Coordinator will pull it, full or
// incrementally, through the one receiver path it pulls every other site —
// local or networked — through.
type DeltaSnapshotter interface {
	DeltaSnapshot(since Cursor) (payload []byte, cursor Cursor, full bool, err error)
}

// Engine is the full contract of an ECM-sketch backend — ingest, single-key
// and batched query, and snapshot (full and incremental). Local sketches,
// the sharded engine and the remote HTTP client are interchangeable behind
// it.
type Engine interface {
	Ingestor
	Querier
	BatchQuerier
	Snapshotter
	DeltaSnapshotter
}

// IngestQuerier is the intersection trackers like TopK need from their
// backing sketch: writes plus point queries, without snapshot capability.
type IngestQuerier interface {
	Ingestor
	Querier
}

// Compile-time interface conformance for every local front end: Engine is
// Ingestor, Querier, BatchQuerier, Snapshotter and DeltaSnapshotter at once.
// (ecmclient.Client asserts its own conformance in its package.)
var (
	_ Engine = (*Sketch)(nil)
	_ Engine = (*SafeSketch)(nil)
	_ Engine = (*Sharded)(nil)

	_ DirectQuerier = (*Sketch)(nil)
	_ DirectQuerier = (*SafeSketch)(nil)
	_ DirectQuerier = (*Sharded)(nil)

	// A coordinator is a read-side front end over its merged root.
	_ BatchQuerier     = (*Coordinator)(nil)
	_ DirectQuerier    = (*Coordinator)(nil)
	_ Snapshotter      = (*Coordinator)(nil)
	_ DeltaSnapshotter = (*Coordinator)(nil)

	// The standing-query registry is the canonical Notifier.
	_ Notifier = (*StandingRegistry)(nil)
)
