// Package ecmserver is the embeddable HTTP front end of both tiers of a
// deployment: collectors POST arrivals, dashboards GET sliding-window
// estimates, and a coordinator pulls the serialized sketch to aggregate
// several sites — from a site server or from another coordinator.
//
// A Server mounts the read routes (GET and POST /v1/query, GET /v1/snapshot,
// /v1/stats, the standing-query routes) over any Source, and the write
// routes (POST /v1/events, /v1/batch, /v1/advance) when the source also
// ingests: a site serves a lock-striped ecmsketch.Sharded, a coordinator its
// ecmsketch.Coordinator, read-only. Every route lives under /v1/, each
// capability under one spelling; testdata/surface.golden lists them all.
// cmd/ecmserve and cmd/ecmcoord wire this package behind flags; ecmclient
// speaks the API as a typed Go client.
package ecmserver

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
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
	// TopK enables the /v1/topk endpoint tracking this many hottest keys.
	TopK int
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
	// re-baselining. Empty (the default) keeps the engine memory-only.
	DataDir string
	// SnapshotInterval is the durable checkpoint cadence (see
	// ecmsketch.DurabilityConfig.SnapshotInterval); meaningful only with
	// DataDir or DurableStore set. 0 checkpoints only at startup and
	// shutdown, letting the WAL grow between them.
	SnapshotInterval time.Duration
	// WALSyncInterval is the WAL fsync cadence (see
	// ecmsketch.DurabilityConfig.SyncInterval): 0 fsyncs every append;
	// a positive interval group-commits in the background.
	WALSyncInterval time.Duration
	// DurableStore, when non-nil, supplies the persistence backend directly
	// (e.g. ecmsketch.NewMemStore in tests) and takes precedence over
	// DataDir.
	DurableStore ecmsketch.DurableStore
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
	// Both are nil at a coordinator.
	ingestor  ecmsketch.Ingestor
	engine    *ecmsketch.Sharded
	tierStats func(asStrings bool) map[string]any
	cfg       Config
	mux       *http.ServeMux
	patterns  []string     // every pattern mounted on mux; testdata/surface.golden pins the list
	handler   http.Handler // mux, wrapped with bearer auth when configured

	// topkMu guards the TopK candidate set; the stream itself lives in the
	// shared engine (single ingest, no private second sketch).
	topkMu sync.Mutex
	topk   *ecmsketch.TopK // nil unless TopK > 0

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
	store := cfg.DurableStore
	if store == nil && cfg.DataDir != "" {
		store, err = ecmsketch.NewFileStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
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
	return NewOver(cfg, engine, nil)
}

// NewOver builds the routes over a source the caller already owns (and
// keeps using: the server adds no locking of its own beyond the source's).
// Write routes mount only when src is also an ecmsketch.Ingestor; a
// *ecmsketch.Sharded additionally gets /v1/interval, its block of /v1/stats,
// and its change notes wired into the standing-query registry. Over any
// other source the registry evaluates what the owner feeds it through
// Standing().RefreshTarget, and subscriptions must name their keys.
//
// cfg's engine fields only label /v1/stats at a site and should match the
// engine's construction; the source is not rebuilt or validated against
// them. tierStats, when non-nil, adds the owner's fields to /v1/stats.
func NewOver(cfg Config, src Source, tierStats func(asStrings bool) map[string]any) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("ecmserver: NewOver requires a source")
	}
	s := &Server{src: src, tierStats: tierStats, cfg: cfg, mux: http.NewServeMux()}
	s.ingestor, _ = src.(ecmsketch.Ingestor)
	s.engine, _ = src.(*ecmsketch.Sharded)

	s.Handle("POST /v1/query", s.handleQuery)
	s.Handle("GET /v1/query", s.handleQueryGet)
	s.Handle("GET /v1/stats", s.handleStats)
	s.Handle("GET /v1/snapshot", s.handleSnapshot)
	if s.ingestor != nil {
		s.Handle("POST /v1/batch", s.handleBatch)
		s.Handle("POST /v1/events", s.handleEvents)
		s.Handle("POST /v1/advance", s.handleAdvance)
	}
	if cfg.TopK > 0 {
		if s.engine == nil {
			return nil, fmt.Errorf("ecmserver: TopK needs a site engine")
		}
		tk, err := ecmsketch.NewTopKOver(cfg.TopK, s.engine, cfg.WindowLength)
		if err != nil {
			return nil, err
		}
		s.topk = tk
		s.Handle("GET /v1/topk", s.handleTopK)
	}

	// Standing queries: at a site the registry re-checks its predicates
	// incrementally on the engine's change feed (synchronously after each
	// mutation's locks release) and pushes fired notifications to /v1/watch
	// streams. The rw engine's randomized expiry is not monotone under pure
	// advances, so it runs with the strict re-check policy. Any other
	// source only ever shows cell replacements, never raw keys to learn
	// top-k candidates from, hence RequireKeys.
	if s.engine != nil {
		s.Handle("GET /v1/interval", s.handleInterval)
		s.standing = ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{
			Window:        cfg.WindowLength,
			StrictAdvance: strings.EqualFold(cfg.Algorithm, "rw"),
		})
		s.standing.Bind(s.engine)
		s.engine.SetNotifier(s.standing)
	} else {
		s.standing = ecmsketch.NewStandingRegistry(ecmsketch.StandingConfig{RequireKeys: true})
	}
	svc := &standing.Service{Reg: s.standing}
	s.Handle("POST /v1/subscribe", svc.HandleSubscribe)
	s.Handle("DELETE /v1/subscribe", svc.HandleUnsubscribe)
	s.Handle("GET /v1/watch", svc.HandleWatch)

	if cfg.EnableProfiling {
		// Registered inside the mux the bearer wrapper guards — see
		// Config.EnableProfiling. The default-mux side effects of importing
		// net/http/pprof are irrelevant here; these are explicit routes.
		s.Handle("GET /debug/pprof/", pprof.Index)
		s.Handle("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.Handle("GET /debug/pprof/profile", pprof.Profile)
		s.Handle("GET /debug/pprof/symbol", pprof.Symbol)
		s.Handle("GET /debug/pprof/trace", pprof.Trace)
	}

	s.handler = wire.RequireBearer(cfg.AuthToken, s.mux)
	return s, nil
}

// Handle mounts a route of the source's owner — a coordinator's membership
// and refresh routes — on the server's mux, behind the same bearer check.
// pattern is a net/http ServeMux pattern ("POST /v1/refresh").
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
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
// closed (final checkpoint, WAL shut down); any other source is its owner's
// to close. Idempotent.
func (s *Server) Close() error {
	if s.engine == nil {
		return nil
	}
	s.engine.SetNotifier(nil)
	return s.engine.Close()
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
// route — Handle-mounted ones included — sits behind the bearer check.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// ingestBatch feeds a batch through the engine's lock-amortized path and
// then registers the keys as TopK candidates without re-ingesting.
func (s *Server) ingestBatch(events []ecmsketch.Event) {
	s.ingestor.AddBatch(events)
	if s.topk != nil {
		s.topkMu.Lock()
		for _, ev := range events {
			s.topk.Note(ev.Key)
		}
		s.topkMu.Unlock()
	}
}

// ingestFlushEvery bounds the memory of streaming batch uploads: parsed
// events are flushed into the engine in chunks of this many, so arbitrarily
// long request bodies never accumulate in full.
const ingestFlushEvery = 4096

// eventBufs pools the chunk buffers of the batch routes. A handler may put
// its buffer back as soon as ingestBatch returns: Sharded.AddBatch only reads
// the slice (sync ingest applies and WAL-encodes it under the stripe locks,
// the async pipeline copies it into its own per-stripe chunks), and the
// standing-query and TopK notes copy the keys out before returning.
var eventBufs = sync.Pool{New: func() any {
	buf := make([]ecmsketch.Event, 0, ingestFlushEvery)
	return &buf
}}

// handleBatch ingests newline-separated "key,tick[,count]" records:
// POST /v1/batch with a text body. Returns the number of accepted records
// and the first error encountered, if any. Records are applied in chunks
// as the body streams in, so a huge upload costs bounded memory (malformed
// lines are skipped, as reported, not rolled back). A record that would buy
// unbounded work — a line over 1 MiB, which the line scanner gives up on, or
// a count over wire.MaxEventCount — ends the scan and is answered 400 with
// /v1/events' reply, {"error", "accepted"}: accepted counts the records
// before it, all applied.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	accepted, lineNo := 0, 0
	var firstErr string
	var stop error // what ended the scan early; answered 400
	buf := eventBufs.Get().(*[]ecmsketch.Event)
	defer eventBufs.Put(buf)
	events := (*buf)[:0]
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, ",")
		if !ok {
			if firstErr == "" {
				firstErr = fmt.Sprintf("line %d: want key,tick[,count]", lineNo)
			}
			continue
		}
		tick, count, hasCount := strings.Cut(rest, ",")
		t, err := strconv.ParseUint(strings.TrimSpace(tick), 10, 64)
		if err != nil {
			if firstErr == "" {
				firstErr = fmt.Sprintf("line %d: bad tick: %v", lineNo, err)
			}
			continue
		}
		n := uint64(1)
		if hasCount {
			count, _, _ = strings.Cut(count, ",") // further fields are ignored
			if n, err = strconv.ParseUint(strings.TrimSpace(count), 10, 64); err != nil {
				if firstErr == "" {
					firstErr = fmt.Sprintf("line %d: bad count: %v", lineNo, err)
				}
				continue
			}
			if n > wire.MaxEventCount {
				stop = fmt.Errorf("line %d: count %d: at most %d arrivals per record", lineNo, n, wire.MaxEventCount)
				break
			}
		}
		key := ecmsketch.KeyString(strings.TrimSpace(name))
		events = append(events, ecmsketch.Event{Key: key, Tick: t, N: n})
		accepted++
		if len(events) == ingestFlushEvery {
			s.ingestBatch(events)
			events = events[:0]
		}
	}
	// Whatever stopped the scan, every record parsed before it is applied,
	// like the chunks already flushed.
	s.ingestBatch(events)
	if stop == nil {
		stop = sc.Err()
	}
	if stop != nil {
		badIngest(w, stop, accepted)
		return
	}
	resp := map[string]any{"accepted": accepted}
	if firstErr != "" {
		resp["firstError"] = firstErr
	}
	wire.Respond(w, resp)
}

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
			badIngest(w, err, accepted)
			return
		}
		if !ok {
			break
		}
		if events = append(events, ev); len(events) == ingestFlushEvery {
			s.ingestBatch(events)
			accepted += len(events)
			events = events[:0]
		}
	}
	s.ingestBatch(events)
	wire.Respond(w, map[string]any{"accepted": accepted + len(events)})
}

// badIngest is the 400 of both ingest routes, /v1/batch and /v1/events: the
// error that stopped the request and the records applied before it.
func badIngest(w http.ResponseWriter, err error, accepted int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "accepted": accepted})
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
// site's engine dimensions, clock and footprint, or what the source's owner
// supplied to NewOver. With ?strings=1, the 64-bit tick/count fields (now,
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
	if s.tierStats != nil {
		maps.Copy(out, s.tierStats(asStrings))
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

// handleTopK reports the current hottest keys: GET /v1/topk?range=60000.
// Available only when the server was configured with TopK > 0.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	rng, err := wire.ParseU64(r, "range", s.cfg.WindowLength)
	if err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	s.topkMu.Lock()
	items := s.topk.Top(rng)
	s.topkMu.Unlock()
	// Keys are rendered as decimal strings: uint64 digests exceed the
	// float64-exact integer range of JSON consumers.
	type entry struct {
		Key      string  `json:"key"`
		Estimate float64 `json:"estimate"`
	}
	out := make([]entry, len(items))
	for i, it := range items {
		out[i] = entry{Key: strconv.FormatUint(it.Key, 10), Estimate: it.Estimate}
	}
	wire.Respond(w, map[string]any{"top": out, "range": wire.U64Field(wire.WantStrings(r), rng)})
}
