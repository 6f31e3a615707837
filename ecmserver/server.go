// Package ecmserver is the embeddable HTTP front end of both tiers of a
// deployment: collectors POST arrivals, dashboards GET sliding-window
// estimates, and a coordinator pulls the serialized sketch to aggregate
// several sites — from a site server or from another coordinator.
//
// A Server mounts the read routes (GET and POST /v1/query, GET /v1/snapshot,
// /v1/stats, the standing-query routes) over any Source, and the write
// routes (POST /v1/events, /v1/advance) when the source also
// ingests: a site serves a lock-striped ecmsketch.Sharded, a coordinator its
// ecmsketch.Coordinator, read-only, plus the coordinator's own refresh and
// membership routes (POST /v1/refresh, GET/POST/DELETE /v1/sites) and its
// re-pull loop. Every route lives under /v1/, each capability under one
// spelling; testdata/surface.golden lists them all. cmd/ecmserve wires this
// package behind flags, as a site or, with -sites, as a coordinator;
// ecmclient speaks the API as a typed Go client.
package ecmserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecmsketch"
	"ecmsketch/internal/standing"
	"ecmsketch/internal/wire"
)

// Config configures the sketch engine behind the HTTP API.
type Config struct {
	Epsilon      float64
	Delta        float64
	WindowLength uint64
	Algorithm    string // "eh", "dw" or "rw"
	UpperBound   uint64
	Seed         uint64
	// Shards is the lock-stripe count of the engine; 0 means GOMAXPROCS.
	Shards int
	// MergeTTL bounds the staleness of global queries (selfjoin, total,
	// sketch pulls) served from the engine's cached merged view; 0 means
	// always fresh.
	MergeTTL time.Duration
	// AuthToken, when non-empty, requires "Authorization: Bearer <AuthToken>"
	// on every route (constant-time compared); unauthenticated requests get
	// 401. Empty leaves the server open, as before.
	AuthToken string
	// EnableProfiling mounts net/http/pprof under /debug/pprof/ for CPU and
	// heap profiling of live ingest/merge workloads. The mount registers on
	// the same mux every API route lives on, inside the bearer wrapper: with
	// AuthToken set, profiles require the token like everything else — the
	// profiling surface is never reachable unauthenticated on an
	// authenticated server.
	EnableProfiling bool
	// DataDir, when non-empty, makes the engine durable: epoch, periodic
	// arena snapshots and a write-ahead log of ingested batches persist
	// under this directory, and a restarted server replays to exactly its
	// pre-crash state — same epoch, same cell versions — so coordinators
	// holding delta cursors keep pulling increments instead of
	// re-baselining. At a coordinator the merged root (with its
	// delta-serving epoch) and the site membership persist instead, with
	// the same effect for its parents. Empty (the default) keeps the server
	// memory-only.
	DataDir string
	// SnapshotInterval is the durable checkpoint cadence (see
	// ecmsketch.DurabilityConfig.SnapshotInterval); meaningful only with
	// DataDir or DurableStore set. 0 checkpoints only at startup and
	// shutdown, letting the WAL grow between them. At a coordinator it is
	// the minimum period between merged-root saves after pull rounds; 0
	// saves only on Close.
	SnapshotInterval time.Duration
	// WALSyncInterval is the WAL fsync cadence (see
	// ecmsketch.DurabilityConfig.SyncInterval): 0 fsyncs every append;
	// a positive interval group-commits in the background.
	WALSyncInterval time.Duration
	// DurableStore, when non-nil, supplies the persistence backend directly
	// (e.g. ecmsketch.NewMemStore in tests) and takes precedence over
	// DataDir.
	DurableStore ecmsketch.DurableStore
	// RefreshInterval is a coordinator's re-pull period: NewOver over an
	// *ecmsketch.Coordinator pulls once, then again every interval until
	// Close. 0 starts no loop; rounds then run on POST /v1/refresh only.
	RefreshInterval time.Duration
	// PullClient pulls the sites a coordinator gains at runtime (POST
	// /v1/sites) or restores from DataDir; nil uses the shared default pull
	// client (see ecmsketch.NewPullClient).
	PullClient *http.Client
	// SiteToken is the bearer token those pulls carry, for sites started
	// with an AuthToken.
	SiteToken string
}

// store is the persistence backend cfg names, nil for a memory-only server.
func (cfg Config) store() (ecmsketch.DurableStore, error) {
	if cfg.DurableStore != nil || cfg.DataDir == "" {
		return cfg.DurableStore, nil
	}
	return ecmsketch.NewFileStore(cfg.DataDir)
}

// Source is the read side a Server serves. *ecmsketch.Sharded (a site) and
// *ecmsketch.Coordinator (the merged view of several) both satisfy it. Reads
// failing with ecmsketch.ErrNotReady — a coordinator before its first pull —
// are answered 503.
type Source interface {
	ecmsketch.BatchQuerier
	ecmsketch.DirectQuerier
	ecmsketch.Snapshotter
	ecmsketch.DeltaSnapshotter
}

// Server is an HTTP front end over a Source. All handlers are safe for
// concurrent use; at a site, ingest contends only per key stripe.
type Server struct {
	src Source
	// ingestor is src when it also ingests (the write routes exist only
	// then); engine is src when it is a Sharded, which adds /v1/interval,
	// the engine block of /v1/stats and the standing-query change feed.
	// Both are nil at a coordinator. coord is set when src is a
	// Coordinator: the refresh loop, membership and persistence.
	ingestor ecmsketch.Ingestor
	engine   *ecmsketch.Sharded
	coord    *coordinator
	cfg      Config
	mux      *http.ServeMux
	patterns []string     // every pattern mounted on mux; testdata/surface.golden pins the list
	handler  http.Handler // mux, wrapped with bearer auth when configured

	// standing evaluates continuous queries incrementally off the source's
	// change feed and fans fired notifications out over /v1/watch (SSE).
	standing *ecmsketch.StandingRegistry
}

// New builds the engine and routes.
func New(cfg Config) (*Server, error) {
	algo, err := ParseAlgo(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	params := ecmsketch.Params{
		Epsilon:      cfg.Epsilon,
		Delta:        cfg.Delta,
		Algorithm:    algo,
		WindowLength: cfg.WindowLength,
		UpperBound:   cfg.UpperBound,
		Seed:         cfg.Seed,
	}
	shCfg := ecmsketch.ShardedConfig{
		Params:   params,
		Shards:   cfg.Shards,
		MergeTTL: cfg.MergeTTL,
	}
	store, err := cfg.store()
	if err != nil {
		return nil, err
	}
	if store != nil {
		shCfg.Durability = &ecmsketch.DurabilityConfig{
			Store:            store,
			SnapshotInterval: cfg.SnapshotInterval,
			SyncInterval:     cfg.WALSyncInterval,
		}
	}
	engine, err := ecmsketch.NewSharded(shCfg)
	if err != nil {
		return nil, err
	}
	return NewOver(cfg, engine)
}

// NewOver builds the routes over a source the caller already owns (and
// keeps using: the server adds no locking of its own beyond the source's).
// Write routes mount only when src is also an ecmsketch.Ingestor; a
// *ecmsketch.Sharded additionally gets /v1/interval, its block of /v1/stats,
// and its change notes wired into the standing-query registry. A
// *ecmsketch.Coordinator gets its refresh and membership routes, its block
// of /v1/stats, the persistence DataDir/DurableStore asks for (restored
// here, before the first pull), and — with a positive RefreshInterval — a
// first pull and the re-pull loop; each round feeds the standing-query
// registry. Over any other source the registry evaluates what the owner
// feeds it through Standing().RefreshTarget. Everywhere but at a Sharded,
// subscriptions must name their keys.
//
// cfg's engine fields only label /v1/stats at a site and should match the
// engine's construction; the source is not rebuilt or validated against
// them.
func NewOver(cfg Config, src Source) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("ecmserver: NewOver requires a source")
	}
	s := &Server{src: src, cfg: cfg, mux: http.NewServeMux()}
	s.ingestor, _ = src.(ecmsketch.Ingestor)

	s.handle("POST /v1/query", s.handleQuery)
	s.handle("GET /v1/query", s.handleQueryGet)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/snapshot", s.handleSnapshot)
	if s.ingestor != nil {
		s.handle("POST /v1/events", s.handleEvents)
		s.handle("POST /v1/advance", s.handleAdvance)
	}

	// Standing queries: at a site the registry re-checks its predicates
	// incrementally on the engine's change feed (synchronously after each
	// mutation's locks release) and pushes fired notifications to /v1/watch
	// streams; its window and advance policy are the engine's own Params.
	// Any other source only ever shows cell replacements, never raw keys to
	// learn top-k candidates from, hence RequireKeys.
	switch src := src.(type) {
	case *ecmsketch.Sharded:
		s.engine = src
		s.handle("GET /v1/interval", s.handleInterval)
		s.standing = ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{})
		s.standing.Bind(src)
		src.SetNotifier(s.standing)
	case *ecmsketch.Coordinator:
		s.standing = ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{RequireKeys: true})
		c, err := newCoordinator(cfg, src, s.standing)
		if err != nil {
			return nil, err
		}
		s.coord = c
		s.handle("POST /v1/refresh", c.handleRefresh)
		s.handle("GET /v1/sites", c.handleSitesGet)
		s.handle("POST /v1/sites", c.handleSitesAdd)
		s.handle("DELETE /v1/sites", c.handleSitesRemove)
	default:
		s.standing = ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{RequireKeys: true})
	}
	svc := &standing.Service{Reg: s.standing}
	s.handle("POST /v1/subscribe", svc.HandleSubscribe)
	s.handle("DELETE /v1/subscribe", svc.HandleUnsubscribe)
	s.handle("GET /v1/watch", svc.HandleWatch)

	if cfg.EnableProfiling {
		// Registered inside the mux the bearer wrapper guards — see
		// Config.EnableProfiling. The default-mux side effects of importing
		// net/http/pprof are irrelevant here; these are explicit routes.
		s.handle("GET /debug/pprof/", pprof.Index)
		s.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.handle("GET /debug/pprof/profile", pprof.Profile)
		s.handle("GET /debug/pprof/symbol", pprof.Symbol)
		s.handle("GET /debug/pprof/trace", pprof.Trace)
	}

	s.handler = wire.RequireBearer(cfg.AuthToken, s.mux)
	return s, nil
}

// handle mounts a route on the server's mux, behind the bearer check, and
// records its pattern ("POST /v1/refresh") for the surface golden.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.patterns = append(s.patterns, pattern)
	s.mux.HandleFunc(pattern, h)
}

// ListenAndServe serves the API on addr until the listener fails: over TLS
// when certFile and keyFile are set, in the clear when both are empty.
func (s *Server) ListenAndServe(addr, certFile, keyFile string) error {
	if (certFile == "") != (keyFile == "") {
		return errors.New("ecmserver: TLS needs both a certificate and a key file")
	}
	if certFile != "" {
		return http.ListenAndServeTLS(addr, certFile, keyFile, s)
	}
	return http.ListenAndServe(addr, s)
}

// Close releases server-held background resources: at a site the
// standing-query hook is detached from the engine before the engine is
// closed (final checkpoint, WAL shut down); at a coordinator the re-pull
// loop is stopped and waited for, then the merged root saved a last time
// when persistence is on. Any other source is its owner's to close.
// Idempotent.
func (s *Server) Close() error {
	switch {
	case s.engine != nil:
		s.engine.SetNotifier(nil)
		return s.engine.Close()
	case s.coord != nil:
		return s.coord.close()
	}
	return nil
}

// Engine exposes the sketch engine backing a site server (e.g. to share it
// with other in-process consumers); nil when the source is not a Sharded.
func (s *Server) Engine() *ecmsketch.Sharded { return s.engine }

// Standing exposes the standing-query registry behind /v1/subscribe and
// /v1/watch, for in-process subscribers and tests.
func (s *Server) Standing() *ecmsketch.StandingRegistry { return s.standing }

// ParseAlgo resolves the wire names of the counter algorithms.
func ParseAlgo(s string) (ecmsketch.Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "eh":
		return ecmsketch.AlgoEH, nil
	case "dw":
		return ecmsketch.AlgoDW, nil
	case "rw":
		return ecmsketch.AlgoRW, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want eh, dw or rw)", s)
	}
}

// ServeHTTP implements http.Handler. When Config.AuthToken is set, every
// route sits behind the bearer check.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// ingestFlushEvery bounds the memory of streaming /v1/events uploads: parsed
// events are flushed into the engine in chunks of this many, so arbitrarily
// long request bodies never accumulate in full.
const ingestFlushEvery = 4096

// eventBufs pools the chunk buffers of /v1/events. The handler may put
// its buffer back as soon as AddBatch returns: Sharded.AddBatch only reads
// the slice (sync ingest applies and WAL-encodes it under the stripe locks,
// the async pipeline copies it into its own per-stripe chunks), and the
// standing-query notes copy the keys out before returning.
var eventBufs = sync.Pool{New: func() any {
	buf := make([]ecmsketch.Event, 0, ingestFlushEvery)
	return &buf
}}

// handleEvents ingests a JSON array of arrivals: POST /v1/events with body
// [{"key":"/home","t":12345,"n":2}, {"ikey":"17446744073709551615","t":12346}]
// (wire.Scanner.NextEvent has the grammar). The array is scanned element by
// element and flushed into the engine in chunks, so body size does not bound
// memory; an error mid-stream returns 400 with the count already accepted
// (earlier chunks are not rolled back).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sc := wire.NewScanner(r.Body)
	defer sc.Release()
	buf := eventBufs.Get().(*[]ecmsketch.Event)
	defer eventBufs.Put(buf)
	events, accepted := (*buf)[:0], 0
	for {
		ev, ok, err := sc.NextEvent()
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "accepted": accepted})
			return
		}
		if !ok {
			break
		}
		if events = append(events, ev); len(events) == ingestFlushEvery {
			s.ingestor.AddBatch(events)
			accepted += len(events)
			events = events[:0]
		}
	}
	s.ingestor.AddBatch(events)
	wire.Respond(w, map[string]any{"accepted": accepted + len(events)})
}

// WireQueryResult is the JSON reply of POST /v1/query: one estimate per
// requested key in request order, the aggregates if requested, and the
// engine clock the consistent cut was taken at. Now and Range are 64-bit
// ticks; requests carrying ?strings=1 receive them as decimal strings
// (see wire.WantStrings) via wireQueryResultStrings instead.
type WireQueryResult struct {
	Estimates []float64 `json:"estimates"`
	Total     *float64  `json:"total,omitempty"`
	SelfJoin  *float64  `json:"selfJoin,omitempty"`
	Now       uint64    `json:"now"`
	Range     uint64    `json:"range"`
}

// wireQueryResultStrings is WireQueryResult with the 64-bit tick fields
// encoded as decimal strings, the ?strings=1 reply shape.
type wireQueryResultStrings struct {
	Estimates []float64 `json:"estimates"`
	Total     *float64  `json:"total,omitempty"`
	SelfJoin  *float64  `json:"selfJoin,omitempty"`
	Now       string    `json:"now"`
	Range     string    `json:"range"`
}

// handleQuery answers a batched multi-key query from one consistent cut of
// the source's merged view: POST /v1/query with body
//
//	{"keys":[{"key":"/home"},{"ikey":"17446744073709551615"}],
//	 "range":60000,"total":true,"selfJoin":true}
//
// An omitted or zero range means the whole window; see wire.ParseQueryBody
// for the strict body semantics (at most wire.MaxQueryKeys keys).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := wire.ParseQueryBody(r.Body)
	if err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	s.answerQuery(w, r, q)
}

// handleQueryGet answers the GET form of /v1/query: repeated key=/ikey=
// parameters plus range=, total=1, selfJoin=1 — the curl-friendly spelling
// of the same batch the POST body carries. Both forms honor ?direct=1.
func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	q, err := wire.ParseQueryParams(r)
	if err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	s.answerQuery(w, r, q)
}

// sourceError writes a failed read: 503 while the source has no view to
// answer from yet (see Source), code otherwise.
func sourceError(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, ecmsketch.ErrNotReady) {
		code = http.StatusServiceUnavailable
	}
	wire.Error(w, code, err)
}

// answerQuery evaluates a parsed QueryBatch and writes the /v1 reply.
// ?direct=1 routes through the zero-merge path: at a site each key is
// answered from its owning stripe, no merged view built or consulted — an
// inconsistent cut traded for zero merge error and zero rebuild cost.
// Aggregates need the merged view and are rejected there with 400.
func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request, q ecmsketch.QueryBatch) {
	var res ecmsketch.QueryResult
	var err error
	if wire.WantDirect(r) {
		res, err = s.src.QueryDirect(q)
		if err != nil {
			sourceError(w, http.StatusBadRequest, err)
			return
		}
	} else if res, err = s.src.QueryBatch(q); err != nil {
		sourceError(w, http.StatusInternalServerError, err)
		return
	}
	out := WireQueryResult{Estimates: res.Estimates, Now: res.Now, Range: res.Range}
	if out.Estimates == nil {
		out.Estimates = []float64{} // aggregate-only queries still reply with an array
	}
	if q.Total {
		out.Total = &res.Total
	}
	if q.SelfJoin {
		out.SelfJoin = &res.SelfJoin
	}
	if wire.WantStrings(r) {
		wire.Respond(w, wireQueryResultStrings{
			Estimates: out.Estimates,
			Total:     out.Total,
			SelfJoin:  out.SelfJoin,
			Now:       strconv.FormatUint(out.Now, 10),
			Range:     strconv.FormatUint(out.Range, 10),
		})
		return
	}
	wire.Respond(w, out)
}

// handleInterval answers a point query over an arbitrary tick interval:
// GET /v1/interval?key=/home&from=1000&to=2000 estimates the key's
// frequency within (from, to]. Interval queries carry twice the window
// error of suffix queries.
func (s *Server) handleInterval(w http.ResponseWriter, r *http.Request) {
	key, err := wire.ParseKey(r)
	if err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	from, err := wire.ParseU64(r, "from", 0)
	if err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	to, err := wire.ParseU64(r, "to", 0)
	if err != nil || to == 0 {
		wire.Error(w, http.StatusBadRequest, fmt.Errorf("missing or bad to parameter"))
		return
	}
	est := s.engine.EstimateInterval(key, from, to)
	asStrings := wire.WantStrings(r)
	wire.Respond(w, map[string]any{"estimate": est, "from": wire.U64Field(asStrings, from), "to": wire.U64Field(asStrings, to)})
}

// handleStats reports the standing-query load plus the tier's own block: a
// site's engine dimensions, clock and footprint, or a coordinator's pull
// accounting and last round (see coordinator.addStats). With ?strings=1, the 64-bit tick/count fields (now,
// count, window, viewRebuilds, ...) are encoded as decimal strings.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	asStrings := wire.WantStrings(r)
	subs, queries, watchers, dropped := s.standing.Stats()
	out := map[string]any{
		"standing": map[string]any{
			"subscriptions": subs,
			"queries":       queries,
			"watchers":      watchers,
			"dropped":       wire.U64Field(asStrings, dropped),
		},
		"apiVersion": "v1",
	}
	if s.engine != nil {
		out["width"] = s.engine.Width()
		out["depth"] = s.engine.Depth()
		out["shards"] = s.engine.Shards()
		out["now"] = wire.U64Field(asStrings, s.engine.Now())
		out["count"] = wire.U64Field(asStrings, s.engine.Count())
		out["memoryBytes"] = s.engine.MemoryBytes()
		out["viewRebuilds"] = wire.U64Field(asStrings, s.engine.ViewRebuilds())
		out["rebuild"] = rebuildStatsField(asStrings, s.engine)
		out["epsilon"] = s.cfg.Epsilon
		out["delta"] = s.cfg.Delta
		out["window"] = wire.U64Field(asStrings, s.cfg.WindowLength)
		out["algorithm"] = s.cfg.Algorithm
		out["durability"] = durabilityStatsField(asStrings, s.engine)
	}
	if s.coord != nil {
		s.coord.addStats(out, asStrings)
	}
	wire.Respond(w, out)
}

// durabilityStatsField renders the durability block of /v1/stats: whether
// the engine persists, the epoch it serves deltas under, the last
// checkpoint (engine tick and wall clock), the WAL volume accumulated since
// it, and the latency of the most recent fsync. Disabled engines report
// {"enabled": false} only. 64-bit counters honor ?strings=1.
func durabilityStatsField(asStrings bool, engine *ecmsketch.Sharded) map[string]any {
	st := engine.DurabilityStats()
	if !st.Enabled {
		return map[string]any{"enabled": false}
	}
	return map[string]any{
		"enabled":            true,
		"epoch":              wire.U64Field(asStrings, st.Epoch),
		"generation":         wire.U64Field(asStrings, st.Generation),
		"lastSnapshotTick":   wire.U64Field(asStrings, st.LastSnapshotTick),
		"lastSnapshotUnixMs": st.LastSnapshotUnixMs,
		"walRecords":         wire.U64Field(asStrings, st.WALRecords),
		"walBytes":           wire.U64Field(asStrings, st.WALBytes),
		"lastFsyncNs":        st.LastFsyncNs,
		"recovered":          st.Recovered,
		"replayedRecords":    wire.U64Field(asStrings, st.ReplayedRecords),
		"errors":             wire.U64Field(asStrings, st.Errors),
	}
}

// rebuildStatsField renders the merged-view rebuild timing block of
// /v1/stats: the wall time of the most recent rebuild's stripe clone+merge
// and the worker-pool size the per-stripe refresh fanned across (1 =
// sequential) — together, the effective parallelism of the merge path.
// merge_ns is a 64-bit field and honors ?strings=1 like every other.
func rebuildStatsField(asStrings bool, engine *ecmsketch.Sharded) map[string]any {
	mergeNs, workers := engine.RebuildStats()
	return map[string]any{
		"merge_ns": wire.U64Field(asStrings, uint64(mergeNs)),
		"workers":  workers,
	}
}

// writeSnapshot ships the source's frozen merged-view bytes plus X-Ecm-Now
// and X-Ecm-Count headers so pullers can gauge staleness and stream volume
// without decoding the body. Headers and payload come from one Snapshot of
// the merged view (not separate reads of the source), so they describe
// exactly the bytes shipped even under concurrent ingest.
func (s *Server) writeSnapshot(w http.ResponseWriter, r *http.Request) {
	sk, err := s.src.Snapshot()
	if err != nil {
		sourceError(w, http.StatusInternalServerError, err)
		return
	}
	wire.WriteSnapshot(w, r, sk.Marshal(), wire.SnapshotMeta{Now: sk.Now(), Count: sk.Count()})
}

// handleSnapshot is the coordinator pull route, in two modes:
//
// Without ?since=, GET /v1/snapshot ships the full merged view (see
// writeSnapshot), the payload ecmclient.Snapshot decodes.
//
// With ?since=<cursor>, the reply follows the delta protocol: an
// incremental payload holding only the stripes/cells whose version moved
// since the cursor (X-Ecm-Delta: delta), or a full baseline when the cursor
// is absent-valued ("0"), unparsable, or unrecognized — a restarted or
// reconfigured source — re-baselining the puller (X-Ecm-Delta: full).
// X-Ecm-Cursor carries the cursor the payload brings the puller to. At a
// site, delta pulls never build the merged view, so a steady-state pull
// loop costs the server a few stripe clones instead of a P-way merge; a
// coordinator answers from its patched root, so stacked coordinators pull
// cell-granular deltas through the same receiver path they use on leaves.
//
// Both modes honor Accept-Encoding: gzip.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sinceRaw, ok := r.URL.Query()["since"]
	if !ok {
		s.writeSnapshot(w, r)
		return
	}
	var since ecmsketch.Cursor
	if len(sinceRaw) > 0 {
		// An unparsable cursor is an unrecognized one: reply full.
		since, _ = ecmsketch.ParseCursor(sinceRaw[0])
	}
	payload, cur, full, err := s.src.DeltaSnapshot(since)
	if err != nil {
		sourceError(w, http.StatusInternalServerError, err)
		return
	}
	meta := wire.SnapshotMeta{Cursor: cur.String(), Kind: wire.KindDelta}
	if full {
		meta.Kind = wire.KindFull
	}
	// The advisory headers come from the source's own clock and counter,
	// which both tiers report without building or cloning a merged view.
	if c, ok := s.src.(interface {
		Now() ecmsketch.Tick
		Count() uint64
	}); ok {
		meta.Now, meta.Count = c.Now(), c.Count()
	}
	wire.WriteSnapshot(w, r, payload, meta)
}

// handleAdvance moves the window clock forward without an arrival:
// POST /v1/advance?t=99999.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	t, err := wire.ParseU64(r, "t", 0)
	if err != nil || t == 0 {
		wire.Error(w, http.StatusBadRequest, fmt.Errorf("missing or bad t parameter"))
		return
	}
	s.ingestor.Advance(t)
	wire.Respond(w, map[string]any{"ok": true, "now": wire.U64Field(wire.WantStrings(r), t)})
}
