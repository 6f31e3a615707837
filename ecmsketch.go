// Package ecmsketch is the public API of this repository: a Go
// implementation of the ECM-sketch (Exponential Count-Min sketch) of
// Papapetrou, Garofalakis and Deligiannakis, "Sketch-based Querying of
// Distributed Sliding-Window Data Streams", PVLDB 5(10), 2012.
//
// An ECM-sketch summarizes a high-dimensional data stream over a sliding
// window — time-based or count-based — by replacing each counter of a
// Count-Min sketch with a compact sliding-window synopsis (an exponential
// histogram by default). It answers point, inner-product and self-join
// queries over any suffix of the window with probabilistic accuracy
// guarantees, and sketches built at distributed sites can be aggregated into
// a single sketch of the combined stream with a small, bounded loss of
// accuracy.
//
// # Interface-first API
//
// Every sketch front end satisfies the same four small interfaces —
// Ingestor (Add/AddN/AddBatch/Advance), Querier (Estimate/InnerProduct/
// SelfJoin/EstimateTotal over window suffixes), BatchQuerier (QueryBatch:
// multi-key point queries plus optional aggregates from one consistent
// snapshot) and Snapshotter (Marshal/Snapshot, merge-ready) — collectively
// Engine:
//
//   - *Sketch: the plain single-goroutine ECM-sketch.
//   - *SafeSketch: one sketch behind one mutex, for modest concurrency.
//   - *Sharded: a lock-striped engine of P mergeable per-shard sketches,
//     key-hash routed; point queries hit one stripe, global queries read an
//     immutable snapshot-merged view lock-free (Theorem 4 applied inside
//     one process for throughput, on both the write and the read path).
//   - ecmclient.Client: a remote ecmserve instance behind the same
//     interfaces, over the versioned /v1 HTTP API served by ecmserver.
//
// Pipelines written against the interfaces swap backends by swapping the
// constructor (see examples/sharded). Event is the batch unit: AddBatch
// amortizes lock traffic across a slice of arrivals on every backend.
//
// # Quick start
//
//	sk, err := ecmsketch.New(ecmsketch.Params{
//	    Epsilon:      0.05,            // total error budget
//	    Delta:        0.01,            // failure probability
//	    WindowLength: 24 * 3600 * 1000, // 24h window, millisecond ticks
//	})
//	...
//	sk.AddString(pageURL, uint64(arrivalMillis))
//	views := sk.EstimateString(pageURL, 3600*1000) // last hour
//
// For write-heavy concurrent ingest, substitute the sharded engine:
//
//	eng, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{
//	    Params: params, Shards: 16, MergeTTL: 100 * time.Millisecond,
//	})
//
// Higher-level queries (heavy hitters, range counts, quantiles) live behind
// NewHierarchy; hot-item tracking behind NewTopK/NewTopKOver (the latter
// wraps any existing Engine instead of owning a second sketch); continuous
// distributed threshold monitoring behind NewMonitor; multi-site simulation
// and aggregation behind NewCluster.
//
// The implementation packages sit under internal/: window (exponential
// histograms, deterministic and randomized waves), cm (conventional
// Count-Min), core (the ECM-sketch itself), dyadic, geom, coord, workload
// and experiments (the reproduction of the paper's evaluation).
// The HTTP layer lives in ecmserver (embeddable server) and ecmclient
// (typed client); cmd/ecmserve wires the server behind flags.
package ecmsketch

import (
	"ecmsketch/internal/core"
	"ecmsketch/internal/dyadic"
	"ecmsketch/internal/geom"
	"ecmsketch/internal/hashing"
	"ecmsketch/internal/window"
)

// Tick is the logical timestamp fed with every arrival: a time unit of the
// caller's choice for time-based windows, or the global arrival sequence
// number for count-based windows. Ticks must be non-decreasing.
type Tick = window.Tick

// Sketch is an ECM-sketch. See the package documentation and core.Sketch
// for the full method set: Add/AddN/AddString, Estimate/EstimateString,
// InnerProduct, SelfJoin, EstimateTotal, Merge (package function),
// Marshal/Unmarshal, MemoryBytes.
type Sketch = core.Sketch

// Params configures a Sketch.
type Params = core.Params

// Split is an explicit division of the error budget ε between the Count-Min
// array and the sliding-window counters. A nil Params.Split resolves to the
// paper's memory-optimal division for Params.Query and the algorithm.
type Split = core.Split

// InnerProductQuery is the Params.Query value that optimizes the ε-split for
// inner-product and self-join queries; the zero value optimizes for point
// queries.
const InnerProductQuery = core.InnerProductQuery

// WindowModel selects time-based or count-based windows.
type WindowModel = window.Model

// CountBased is the WindowModel of windows holding the last N arrivals; the
// zero value is a time-based window.
const CountBased = window.CountBased

// Algorithm selects the sliding-window synopsis behind each counter.
type Algorithm = window.Algorithm

// Counter algorithms. AlgoEH (exponential histograms) is the paper's default
// and the best choice in nearly every regime; AlgoDW trades nothing in space
// but needs the per-window arrival bound up front; AlgoRW is lossless under
// aggregation at a quadratically higher space cost.
const (
	AlgoEH = window.AlgoEH
	AlgoDW = window.AlgoDW
	AlgoRW = window.AlgoRW
)

// New constructs an ECM-sketch.
func New(p Params) (*Sketch, error) { return core.New(p) }

// Unmarshal reconstructs a sketch from Sketch.Marshal output.
func Unmarshal(b []byte) (*Sketch, error) { return core.Unmarshal(b) }

// Merge aggregates identically configured sketches built over disjoint
// streams (e.g. at distributed sites) into a sketch of the order-preserving
// combined stream. Time-based windows only; see core.Merge for error
// semantics.
func Merge(sketches ...*Sketch) (*Sketch, error) { return core.Merge(sketches...) }

// KeyString digests a string key (URL, MAC address, user id) into the
// uint64 key space of the sketches. AddString/EstimateString call it
// internally; it is exported so callers can pre-digest hot keys.
func KeyString(s string) uint64 { return hashing.KeyString(s) }

// Hierarchy answers the derived sliding-window queries of Section 6.1 —
// heavy hitters, range counts, quantiles — via a dyadic stack of
// ECM-sketches.
type Hierarchy = dyadic.Hierarchy

// HierarchyParams configures a Hierarchy.
type HierarchyParams = dyadic.Params

// HeavyItem is one reported frequent item.
type HeavyItem = dyadic.Item

// NewHierarchy constructs a dyadic hierarchy over a 2^DomainBits key
// universe.
func NewHierarchy(p HierarchyParams) (*Hierarchy, error) { return dyadic.New(p) }

// MergeHierarchies aggregates per-site hierarchies level by level.
func MergeHierarchies(hs ...*Hierarchy) (*Hierarchy, error) { return dyadic.Merge(hs...) }

// UnmarshalHierarchy reconstructs a dyadic hierarchy from Hierarchy.Marshal
// output (e.g. pulled from a remote site before MergeHierarchies).
func UnmarshalHierarchy(b []byte) (*Hierarchy, error) { return dyadic.Unmarshal(b) }

// Monitor runs the geometric method (Section 6.2) for continuous threshold
// monitoring of a function of the global (averaged) sketch across sites.
type Monitor = geom.Monitor

// MonitorConfig configures a Monitor.
type MonitorConfig = geom.Config

// MonitoredFunction is the function whose threshold crossings a Monitor
// tracks; SelfJoinMonitor and L2Monitor are ready-made instances.
type MonitoredFunction = geom.Function

// SelfJoinMonitor monitors the self-join (F₂) estimate.
var SelfJoinMonitor MonitoredFunction = geom.SelfJoinFn{}

// L2Monitor monitors the Euclidean norm of the global sketch vector.
var L2Monitor MonitoredFunction = geom.L2Fn{}

// NewMonitor builds a monitoring deployment of n sites.
func NewMonitor(cfg MonitorConfig, n int) (*Monitor, error) { return geom.NewMonitor(cfg, n) }

// PairMonitor monitors a function of TWO streams per site — by default the
// inner-product (join size) between them, the function type the paper lists
// as ongoing work in Section 6.2.
type PairMonitor = geom.PairMonitor

// The two monitored streams of a PairMonitor, which an update names to say
// which one it feeds.
const (
	StreamA = geom.StreamA
	StreamB = geom.StreamB
)

// InnerProductMonitor monitors the inner-product estimate between the two
// streams of a PairMonitor.
var InnerProductMonitor MonitoredFunction = geom.InnerProductFn{}

// NewPairMonitor builds a two-stream monitoring deployment of n sites.
func NewPairMonitor(cfg MonitorConfig, n int) (*PairMonitor, error) {
	return geom.NewPairMonitor(cfg, n)
}
