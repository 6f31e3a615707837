package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch"
)

// Tracing lives entirely in the harness: spans wrap public calls into each
// layer (client call, Server.ServeHTTP, DurableStore, Site, Refresh), are
// kept in memory during the phase and written out at the end. An untraced
// run installs none of the wrappers below.

// span is one timed call into a layer. Parent is 0 when the caller is not
// known (the span then counts toward its layer's total only). N is the
// count recorded at the same boundary: events, bytes or cells.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"-"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

const spanHeader = "X-Bench-Span"

type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span

	// The candidate parent of a span recorded by a decorator the system
	// calls back into: the open Refresh if there is one, else the handler
	// when exactly one is in flight.
	openRefresh  atomic.Int64
	openHandlers atomic.Int64
	lastHandler  atomic.Int64

	// regime tags coordinator spans with the round kind in progress.
	regime atomic.Value // string
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.regime.Store("")
	return t
}

func (t *tracer) id() int64  { return t.next.Add(1) }
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) candidate() int64 {
	if id := t.openRefresh.Load(); id != 0 {
		return id
	}
	if t.openHandlers.Load() == 1 {
		return t.lastHandler.Load()
	}
	return 0
}

// tagged appends the current regime to a span name ("pull" → "pull.dense").
func (t *tracer) tagged(name string) string {
	if r := t.regime.Load().(string); r != "" {
		return name + "." + r
	}
	return name
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// middleware records one ecmserver span per request around next. The
// parent is the client span named by the X-Bench-Span header, or the
// candidate parent for pulls the system's own HTTP client makes.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.id(), Layer: "ecmserver", Name: t.tagged(r.URL.Path), Start: t.now()}
		if p, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			s.Parent = p
		} else {
			s.Parent = t.candidate()
		}
		t.lastHandler.Store(s.ID)
		t.openHandlers.Add(1)
		next.ServeHTTP(w, r)
		t.openHandlers.Add(-1)
		t.record(s)
	})
}

// spanTransport stamps each request of one client goroutine with that
// goroutine's open span and keeps copies of the first bodies it sends, for
// the replay passes. http.Client runs RoundTrip on the calling goroutine,
// so cur needs no synchronization.
type spanTransport struct {
	base   http.RoundTripper
	cur    int64
	keepAs string // keep the next bodies under this name; "" keeps none
	keep   int
	bodies map[string][][]byte
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(st.cur, 10))
	if st.keepAs != "" && len(st.bodies[st.keepAs]) < st.keep && req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			if b, err := io.ReadAll(rc); err == nil {
				st.bodies[st.keepAs] = append(st.bodies[st.keepAs], b)
			}
			rc.Close()
		}
	}
	return st.base.RoundTrip(req)
}

// tracedStore times the DurableStore the engine is handed.
type tracedStore struct {
	ecmsketch.DurableStore
	t    *tracer
	errs *atomic.Int64
}

func (s tracedStore) note(err error) {
	if err != nil {
		s.errs.Add(1)
	}
}

func (s tracedStore) Load(name string) ([]byte, error) {
	sp := span{ID: s.t.id(), Parent: s.t.candidate(), Layer: "durable", Name: "load", Start: s.t.now()}
	b, err := s.DurableStore.Load(name)
	if !errors.Is(err, ecmsketch.ErrDurableNotFound) {
		s.note(err)
	}
	sp.N = int64(len(b))
	s.t.record(sp)
	return b, err
}

func (s tracedStore) Save(name string, data []byte) error {
	sp := span{ID: s.t.id(), Parent: s.t.candidate(), Layer: "durable", Name: "save", Start: s.t.now(), N: int64(len(data))}
	err := s.DurableStore.Save(name, data)
	s.note(err)
	s.t.record(sp)
	return err
}

func (s tracedStore) OpenLog(name string) (ecmsketch.DurableLog, error) {
	l, err := s.DurableStore.OpenLog(name)
	s.note(err)
	if err != nil {
		return nil, err
	}
	return tracedLog{DurableLog: l, s: s}, nil
}

type tracedLog struct {
	ecmsketch.DurableLog
	s tracedStore
}

func (l tracedLog) Append(p []byte) error {
	sp := span{ID: l.s.t.id(), Parent: l.s.t.candidate(), Layer: "durable", Name: "append", Start: l.s.t.now(), N: int64(len(p))}
	err := l.DurableLog.Append(p)
	l.s.note(err)
	l.s.t.record(sp)
	return err
}

func (l tracedLog) Sync() error {
	sp := span{ID: l.s.t.id(), Parent: l.s.t.candidate(), Layer: "durable", Name: "sync", Start: l.s.t.now()}
	err := l.DurableLog.Sync()
	l.s.note(err)
	l.s.t.record(sp)
	return err
}

// pulled is one payload a site handed its coordinator, kept for the
// DeltaState.Apply replay.
type pulled struct {
	payload []byte
	cur     ecmsketch.Cursor
	full    bool
	regime  string
}

// tracedSite times a coordinator member's pulls and keeps the payloads.
type tracedSite struct {
	ecmsketch.Site
	t *tracer

	mu    sync.Mutex
	keep  int
	pulls []pulled
}

func (s *tracedSite) Delta(since ecmsketch.Cursor) ([]byte, ecmsketch.Cursor, bool, int, error) {
	sp := span{ID: s.t.id(), Parent: s.t.candidate(), Layer: "coord", Name: s.t.tagged("pull"), Start: s.t.now()}
	payload, cur, full, size, err := s.Site.Delta(since)
	sp.N = int64(size)
	s.t.record(sp)
	if err == nil {
		s.mu.Lock()
		if len(s.pulls) < s.keep {
			s.pulls = append(s.pulls, pulled{payload, cur, full, s.t.regime.Load().(string)})
		}
		s.mu.Unlock()
	}
	return payload, cur, full, size, err
}

// selfTimes returns each span's duration minus the part of it its children
// cover. Children may overlap one another (concurrent pulls inside one
// Refresh) and may stick out of the parent (clock skew between goroutines);
// the covered part is the union of the child intervals clipped to the
// parent's.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = time.Duration(p.End - p.Start - covered)
	}
	return self
}

// layerBudget sums self time by layer: where a traced phase's time went.
func layerBudget(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// spanIndex finds spans by layer and name, and a span's parent.
type spanIndex struct {
	byID   map[int64]span
	byName map[string][]span // "layer/name"
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byID: make(map[int64]span, len(spans)), byName: make(map[string][]span)}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.byName[s.Layer+"/"+s.Name] = append(ix.byName[s.Layer+"/"+s.Name], s)
	}
	return ix
}

func (ix spanIndex) durations(layer, name string) samples {
	var out samples
	for _, s := range ix.byName[layer+"/"+name] {
		out.add(s.dur())
	}
	return out
}

func (ix spanIndex) sumN(layer, name string) int64 {
	var n int64
	for _, s := range ix.byName[layer+"/"+name] {
		n += s.N
	}
	return n
}

// childrenOf returns the spans of one layer whose parent is a span named
// parentLayer/parentName.
func (ix spanIndex) childrenOf(layer, parentLayer, parentName string) []span {
	var out []span
	for _, s := range ix.byID {
		if p, ok := ix.byID[s.Parent]; ok && s.Layer == layer && p.Layer == parentLayer && p.Name == parentName {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line; parent is null when unknown.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			span
			Parent *int64 `json:"parent"`
		}{span: s}
		if s.Parent != 0 {
			line.Parent = &s.Parent
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
