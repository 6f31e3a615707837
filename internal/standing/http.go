package standing

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ecmsketch/internal/core"
	"ecmsketch/internal/hashing"
	"ecmsketch/internal/wire"
)

// Service mounts a Registry on an HTTP mux. Both ecmserver and the
// coordinator server route to the same handlers, so the subscribe/watch
// wire contract cannot drift between surfaces.
type Service struct {
	Reg *Registry
}

// keepAlive is the SSE comment-ping interval holding idle watch connections
// open through proxies.
const keepAlive = 15 * time.Second

// --- subscribe wire format ---

// wireKeyRef is a key reference: "key" hashes a string (KeyString), "ikey"
// is a decimal uint64 — the same pair every query endpoint accepts.
type wireKeyRef struct {
	Key  string `json:"key,omitempty"`
	IKey string `json:"ikey,omitempty"`
}

func (kr wireKeyRef) resolve() (uint64, error) {
	switch {
	case kr.Key != "" && kr.IKey != "":
		return 0, errors.New("give key or ikey, not both")
	case kr.Key != "":
		return hashing.KeyString(kr.Key), nil
	case kr.IKey != "":
		v, err := strconv.ParseUint(kr.IKey, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad ikey %q", kr.IKey)
		}
		return v, nil
	}
	return 0, errors.New("missing key")
}

type wireQuery struct {
	Kind        string       `json:"kind"`
	Key         string       `json:"key,omitempty"`
	IKey        string       `json:"ikey,omitempty"`
	Keys        []wireKeyRef `json:"keys,omitempty"`
	K           int          `json:"k,omitempty"`
	Range       uint64       `json:"range,omitempty"`
	Value       float64      `json:"value,omitempty"`
	Below       bool         `json:"below,omitempty"`
	RankChanges bool         `json:"rankChanges,omitempty"`
}

type wireSubscribeRequest struct {
	Queries []wireQuery `json:"queries"`
}

type wireSubscribeReply struct {
	Subscription string   `json:"subscription"`
	Queries      []string `json:"queries"`
}

func (wq wireQuery) toQuery() (Query, error) {
	kind, err := parseKind(wq.Kind)
	if err != nil {
		return Query{}, err
	}
	q := Query{
		Kind:        kind,
		Range:       core.Tick(wq.Range),
		Value:       wq.Value,
		Below:       wq.Below,
		K:           wq.K,
		RankChanges: wq.RankChanges,
	}
	if wq.Key != "" || wq.IKey != "" {
		key, err := wireKeyRef{Key: wq.Key, IKey: wq.IKey}.resolve()
		if err != nil {
			return Query{}, err
		}
		q.Key = key
	} else if kind != KindTopK {
		return Query{}, errors.New("missing key")
	}
	for _, kr := range wq.Keys {
		key, err := kr.resolve()
		if err != nil {
			return Query{}, err
		}
		q.Keys = append(q.Keys, key)
	}
	return q, nil
}

// MarshalSubscribeJSON encodes queries as a POST /v1/subscribe body — the
// client half of parseSubscribe, exported so ecmclient shares one codec.
// Keys travel pre-digested, as ikey decimal strings.
func MarshalSubscribeJSON(queries []Query) ([]byte, error) {
	req := wireSubscribeRequest{Queries: make([]wireQuery, 0, len(queries))}
	for _, q := range queries {
		wq := wireQuery{
			Kind:        q.Kind.String(),
			K:           q.K,
			Range:       uint64(q.Range),
			Value:       q.Value,
			Below:       q.Below,
			RankChanges: q.RankChanges,
		}
		if q.Kind != KindTopK {
			wq.IKey = u64s(q.Key)
		}
		for _, k := range q.Keys {
			wq.Keys = append(wq.Keys, wireKeyRef{IKey: u64s(k)})
		}
		req.Queries = append(req.Queries, wq)
	}
	return json.Marshal(req)
}

// parseSubscribe decodes a POST /v1/subscribe body into its queries.
func parseSubscribe(body io.Reader) ([]Query, error) {
	var req wireSubscribeRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad subscribe body: %w", err)
	}
	queries := make([]Query, 0, len(req.Queries))
	for i, wq := range req.Queries {
		q, err := wq.toQuery()
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		queries = append(queries, q)
	}
	return queries, nil
}

// HandleSubscribe is POST /v1/subscribe: register a batch of standing
// queries, reply with the subscription ID and per-query IDs.
func (sv *Service) HandleSubscribe(w http.ResponseWriter, r *http.Request) {
	queries, err := parseSubscribe(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	info, err := sv.Reg.Subscribe(queries)
	if err != nil {
		wire.Error(w, http.StatusBadRequest, err)
		return
	}
	reply := wireSubscribeReply{Subscription: info.ID, Queries: make([]string, len(info.Queries))}
	for i, id := range info.Queries {
		reply.Queries[i] = strconv.FormatUint(id, 10)
	}
	wire.Respond(w, reply)
}

// HandleUnsubscribe is DELETE /v1/subscribe?sub=ID: remove the subscription
// and end its watch streams with a bye.
func (sv *Service) HandleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("sub")
	if id == "" {
		wire.Error(w, http.StatusBadRequest, errors.New("missing sub parameter"))
		return
	}
	if !sv.Reg.Unsubscribe(id) {
		wire.Error(w, http.StatusNotFound, ErrUnknownSubscription)
		return
	}
	wire.Respond(w, map[string]bool{"ok": true})
}

// --- SSE stream ---

// Stream events, in the standard id:/event:/data: framing:
//
//	hello   — stream opened; data carries the subscription ID and the
//	          sequence the stream starts at.
//	notify  — one fired notification (see notification JSON); id: is its
//	          per-subscription sequence number, the resume cursor.
//	dropped — delivery gap: data carries how many notifications between
//	          the previous and the next delivered sequence were lost
//	          (slow consumer, or a resume past the ring horizon).
//	bye     — the subscription was removed server-side; do not reconnect.
//
// Comment lines (": ka") are keep-alives.

// HandleWatch is GET /v1/watch?sub=ID[&resume=SEQ]: attach an SSE stream.
// With resume, notifications after SEQ still held by the replay ring are
// re-delivered first (exactly-once across a reconnect when the ring covers
// the gap; an explicit dropped marker when it does not).
func (sv *Service) HandleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("sub")
	if id == "" {
		wire.Error(w, http.StatusBadRequest, errors.New("missing sub parameter"))
		return
	}
	var resume uint64
	replay := false
	if v := r.URL.Query().Get("resume"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			wire.Error(w, http.StatusBadRequest, errors.New("bad resume cursor"))
			return
		}
		resume, replay = n, true
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		wire.Error(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	watcher, missed, last, err := sv.Reg.Attach(id, resume, replay)
	if err != nil {
		wire.Error(w, http.StatusNotFound, ErrUnknownSubscription)
		return
	}
	defer sv.Reg.Detach(watcher)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: 2000\nevent: hello\ndata: {\"sub\":%q,\"seq\":\"%d\"}\n\n", id, last)

	emit := func(n Notification) {
		if n.Seq > last+1 {
			fmt.Fprintf(w, "event: dropped\ndata: {\"missed\":%d}\n\n", n.Seq-last-1)
		}
		last = n.Seq
		fmt.Fprintf(w, "id: %d\nevent: notify\ndata: %s\n\n", n.Seq, AppendNotificationJSON(nil, n))
	}
	for _, n := range missed {
		emit(n)
	}
	fl.Flush()

	ticker := time.NewTicker(keepAlive)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case n, open := <-watcher.C:
			if !open {
				// Kicked (subscription lives: end quietly, the client
				// reconnects) or unsubscribed (say goodbye).
				if !sv.Reg.Has(id) {
					fmt.Fprint(w, "event: bye\ndata: {}\n\n")
					fl.Flush()
				}
				return
			}
			emit(n)
			// Drain whatever queued behind it before flushing once.
		drain:
			for {
				select {
				case n, open := <-watcher.C:
					if !open {
						if !sv.Reg.Has(id) {
							fmt.Fprint(w, "event: bye\ndata: {}\n\n")
						}
						fl.Flush()
						return
					}
					emit(n)
				default:
					break drain
				}
			}
			fl.Flush()
		case <-ticker.C:
			fmt.Fprint(w, ": ka\n\n")
			fl.Flush()
		}
	}
}

// --- notification JSON (the data: payload of notify events) ---

// wireNotification mirrors Notification on the wire. Per the repo's JSON
// conventions, full-range 64-bit fields (keys, ticks, nanotimes) travel as
// decimal strings; small counters stay numeric.
type wireNotification struct {
	Seq     uint64         `json:"seq"`
	Query   uint64         `json:"query"`
	Kind    string         `json:"kind"`
	Key     string         `json:"key,omitempty"`
	Value   float64        `json:"value"`
	Prev    float64        `json:"prev"`
	Rising  bool           `json:"rising"`
	Now     string         `json:"now"`
	At      string         `json:"at"`
	Top     []wireTopEntry `json:"top,omitempty"`
	Entered []string       `json:"entered,omitempty"`
	Left    []string       `json:"left,omitempty"`
}

type wireTopEntry struct {
	Key      string  `json:"key"`
	Estimate float64 `json:"estimate"`
}

func u64s(v uint64) string { return strconv.FormatUint(v, 10) }

// AppendNotificationJSON encodes a notification as the SSE data payload.
func AppendNotificationJSON(dst []byte, n Notification) []byte {
	wn := wireNotification{
		Seq:    n.Seq,
		Query:  n.Query,
		Kind:   n.Kind.String(),
		Value:  n.Value,
		Prev:   n.Prev,
		Rising: n.Rising,
		Now:    u64s(uint64(n.Now)),
		At:     strconv.FormatInt(n.At, 10),
	}
	if n.Kind != KindTopK {
		wn.Key = u64s(n.Key)
	}
	for _, it := range n.Top {
		wn.Top = append(wn.Top, wireTopEntry{Key: u64s(it.Key), Estimate: it.Estimate})
	}
	for _, k := range n.Entered {
		wn.Entered = append(wn.Entered, u64s(k))
	}
	for _, k := range n.Left {
		wn.Left = append(wn.Left, u64s(k))
	}
	b, err := json.Marshal(wn)
	if err != nil {
		// Marshaling a plain struct cannot fail; keep the stream alive
		// with an empty object if it somehow does.
		return append(dst, '{', '}')
	}
	return append(dst, b...)
}

// ParseNotificationJSON decodes a notify data payload — the client half of
// AppendNotificationJSON, exported so ecmclient shares one codec.
func ParseNotificationJSON(data []byte) (Notification, error) {
	var wn wireNotification
	if err := json.Unmarshal(data, &wn); err != nil {
		return Notification{}, err
	}
	kind, err := parseKind(wn.Kind)
	if err != nil {
		return Notification{}, err
	}
	n := Notification{
		Seq:    wn.Seq,
		Query:  wn.Query,
		Kind:   kind,
		Value:  wn.Value,
		Prev:   wn.Prev,
		Rising: wn.Rising,
	}
	if wn.Key != "" {
		if n.Key, err = strconv.ParseUint(wn.Key, 10, 64); err != nil {
			return Notification{}, fmt.Errorf("bad key: %w", err)
		}
	}
	if wn.Now != "" {
		now, err := strconv.ParseUint(wn.Now, 10, 64)
		if err != nil {
			return Notification{}, fmt.Errorf("bad now: %w", err)
		}
		n.Now = core.Tick(now)
	}
	if wn.At != "" {
		if n.At, err = strconv.ParseInt(wn.At, 10, 64); err != nil {
			return Notification{}, fmt.Errorf("bad at: %w", err)
		}
	}
	for _, te := range wn.Top {
		k, err := strconv.ParseUint(te.Key, 10, 64)
		if err != nil {
			return Notification{}, fmt.Errorf("bad top key: %w", err)
		}
		n.Top = append(n.Top, Item{Key: k, Estimate: te.Estimate})
	}
	for _, s := range wn.Entered {
		k, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return Notification{}, fmt.Errorf("bad entered key: %w", err)
		}
		n.Entered = append(n.Entered, k)
	}
	for _, s := range wn.Left {
		k, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return Notification{}, fmt.Errorf("bad left key: %w", err)
		}
		n.Left = append(n.Left, k)
	}
	return n, nil
}
