package main

// The benchmark's fixed vocabulary: workload names, metric names, units,
// directions and bounds. BENCHMARK.json at the repository root carries the
// same tables for the driver; TestSmoke fails when the two drift.

// metric describes one reported number. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlServeIngest  = "serve-ingest"
	wlEngineIngest = "engine-ingest"
	wlServeRead    = "serve-read"
	wlCoordRefresh = "coord-refresh"
)

var workloads = []workloadSpec{
	{wlServeIngest, "deployed write path: ecmclient over loopback HTTP into a durable 4-stripe engine, so JSON, HTTP, routing, bank apply, WAL append and fsync all do work"},
	{wlEngineIngest, "library write path: Sharded.AddBatch with no client, server or WAL, so only hashing, routing and bank apply do work and a JSON/HTTP/WAL change must leave it unmoved"},
	{wlServeRead, "reads beside a fixed-rate writer that keeps invalidating the merged view, so view rebuild, estimate and encode dominate and ingest layers barely matter"},
	{wlCoordRefresh, "8 leaves under a 2-level coordinator tree, sparse then dense delta rounds; window 2^20 so nothing expires, steering around the PatchMerged(nil note) panic"},
}

// Every workload emits every end-to-end metric (the driver's contract), so
// the names are generic and each workload defines its operation:
//
//	serve-ingest   op = acked event,   request = AddEvents of 512 events
//	engine-ingest  op = applied event, request = AddBatch of 1024 events
//	serve-read     op = read,          request = one read of any kind
//	coord-refresh  op = sweep,         request = one sweep (mids then root)
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"err_over_bound_p95", "ratio", "lower", 0.25},
}

var (
	readKinds = []string{"direct16", "merged64", "agg"}
	regimes   = []string{"sparse", "dense"}
)

// perLayer lists the layer metrics in the order they print. A metric a
// workload's path does not touch reads 0 on that workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	add := func(name, unit, better string) { out = append(out, metric{Name: name, Unit: unit, Better: better}) }
	each := func(prefix string, suffixes []string, unit, better string) {
		for _, s := range suffixes {
			add(prefix+"."+s, unit, better)
		}
	}
	// Named end-to-end by the issue, but defined on one workload only; the
	// generic end-to-end metrics above gate them through their workload.
	add("recover_ms", "ms", "lower")
	add("direct16_p50_us", "us", "lower")
	add("merged64_p50_us", "us", "lower")
	add("agg_p50_us", "us", "lower")
	add("staleness_p50_ms", "ms", "lower")
	add("refresh_sparse_p50_ms", "ms", "lower")
	add("refresh_dense_p50_ms", "ms", "lower")
	add("sparse_bytes_per_round", "B", "lower")
	add("dense_bytes_per_round", "B", "lower")
	add("failed_share", "ratio", "lower")

	add("workload.gen_ns_per_event", "ns", "lower")
	add("workload.write_late_p50_ms", "ms", "lower")

	add("ecmclient.addevents_overhead_ns_per_event", "ns", "lower")
	each("ecmclient.query_overhead_us", readKinds, "us", "lower")
	add("ecmclient.ack_p99_ms", "ms", "lower")
	add("ecmclient.direct16_p99_us", "us", "lower")
	add("ecmclient.merged64_p99_us", "us", "lower")
	add("ecmclient.agg_p99_us", "us", "lower")

	add("ecmserver.events_handle_ns_per_event", "ns", "lower")
	add("ecmserver.events_parse_ns_per_event", "ns", "lower")
	each("ecmserver.query_handle_us", readKinds, "us", "lower")
	each("ecmserver.query_encode_us", readKinds, "us", "lower")
	each("ecmserver.snapshot_handle_ms", regimes, "ms", "lower")

	each("wire.parse_query_us", readKinds, "us", "lower")

	add("sharded.addbatch_durable_ns_per_event", "ns", "lower")
	add("sharded.addbatch_ns_per_event", "ns", "lower")
	add("sharded.route_overhead_ns_per_event", "ns", "lower")
	add("sharded.writer_scaling", "ratio", "higher")
	add("sharded.addbatch_allocs_per_event", "count", "lower")
	add("sharded.view_rebuilds", "count", "higher")
	add("sharded.view_period_ms", "ms", "lower")
	add("sharded.rebuild_merge_ms", "ms", "lower")
	add("sharded.querydirect_us", "us", "lower")
	add("sharded.querybatch_us", "us", "lower")
	add("sharded.queryagg_us", "us", "lower")

	add("core.addbatch_ns_per_event", "ns", "lower")
	add("core.estimate_ns_per_key", "ns", "lower")
	add("core.selfjoin_us", "us", "lower")
	each("core.delta_apply_ms", regimes, "ms", "lower")
	add("core.delta_bytes_per_changed_cell", "B", "lower")

	add("hashing.hash_ns_per_event", "ns", "lower")
	add("window.bank_apply_ns_per_event", "ns", "lower")

	add("durable.append_ns_per_event", "ns", "lower")
	add("durable.append_bytes_per_event", "B", "lower")
	add("durable.sync_p50_ms", "ms", "lower")
	add("durable.sync_count", "count", "lower")
	add("durable.save_ms", "ms", "lower")
	add("durable.load_ms", "ms", "lower")
	add("durable.errors", "count", "lower")
	add("durable.wal_overhead_ns_per_event", "ns", "lower")
	add("durable.checkpoint_ms", "ms", "lower")
	add("durable.replayed_records", "count", "lower")

	each("coord.pull_p50_ms", regimes, "ms", "lower")
	each("coord.pull_bytes", regimes, "B", "lower")
	each("coord.patch_ms", regimes, "ms", "lower")
	each("coord.changed_cells", regimes, "count", "lower")
	each("coord.mid_refresh_ms", regimes, "ms", "lower")
	each("coord.root_refresh_ms", regimes, "ms", "lower")
	add("coord.delta_pulls", "count", "higher")
	add("coord.full_pulls", "count", "lower")

	add("trace.overhead_share", "ratio", "lower")
	return out
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in spec.go")
}
