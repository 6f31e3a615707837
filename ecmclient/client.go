// Package ecmclient is the typed Go client of the ecmserver /v1 HTTP API.
//
// Client implements the same ecmsketch.Ingestor / Querier / Snapshotter
// interfaces as the local sketch front ends, so code written against those
// interfaces — ingest pipelines, the TopK tracker, examples — can point at
// a remote ecmserve deployment by swapping the constructor and nothing
// else.
//
// Two method families coexist:
//
//   - Explicit, error-returning calls (AddEvents, PointEstimate,
//     SelfJoinEstimate, FetchSnapshotBytes, FetchStats, TopK, ...) for
//     callers that handle transport failures per request.
//   - The methods of the ecmsketch interfaces (Add, AddBatch, Estimate,
//     SelfJoin, QueryBatch, Snapshot, ...), most of whose signatures carry
//     no error; a transport failure there returns a zero value and parks
//     the error on the client, readable (and clearable) via Err, in the
//     bufio.Scanner sticky-error style.
//
// Every call is one request on one route: writes are POST /v1/events, reads
// are /v1/query, summaries are GET /v1/snapshot.
package ecmclient

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ecmsketch"
	"ecmsketch/internal/wire"
)

// Client speaks the ecmserver /v1 API. It is safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	token string

	mu  sync.Mutex
	err error // first unconsumed transport failure of an interface call
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, TLS, proxies).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithAuthToken makes every request carry "Authorization: Bearer <token>" —
// the credential a server started with a non-empty AuthToken requires.
func WithAuthToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// WithRootCAs verifies https:// servers against the given trust pool
// instead of the system roots — for deployments running ecmserve/ecmcoord
// behind a private CA (-tls-cert/-tls-key). It replaces the transport with
// the shared keep-alive pull client (30-second overall timeout); compose
// custom timeouts via WithHTTPClient(ecmsketch.NewPullClient(...)) instead
// of stacking both options.
func WithRootCAs(roots *x509.CertPool) Option {
	return func(c *Client) { c.hc = ecmsketch.NewPullClient(30*time.Second, roots) }
}

// New builds a client for the ecmserver instance at baseURL
// (e.g. "http://collector-3:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: baseURL, hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Err reports the first transport failure since the last Reset of any
// method belonging to an ecmsketch interface — Ingestor, Querier,
// BatchQuerier, DirectQuerier, Snapshotter, DeltaSnapshotter — whether or
// not that method's signature also returns the error; nil means every such
// call succeeded. The explicit calls (AddKey, AddEvents, PointEstimate,
// FetchSnapshotBytes, FetchStats, TopK, Sites, ...) return their error and
// record nothing.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Reset clears the sticky error.
func (c *Client) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.err = nil
}

func (c *Client) record(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// request issues one request on path with query q and decodes the JSON reply
// into out (ignored if nil); contentType labels a non-nil body.
func (c *Client) request(method, path string, q url.Values, body io.Reader, contentType string, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("ecmclient: %s %s: %w", req.Method, req.URL.Path, err)
	}
	// Closing a body with unread bytes makes net/http discard the
	// connection; draining a bounded remainder first keeps it pooled on
	// every return path (ignored replies, error bodies, trailing newlines).
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // best effort: a failed drain only costs the connection
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var remote struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &remote) == nil && remote.Error != "" {
			return fmt.Errorf("ecmclient: %s %s: %s: %s", req.Method, req.URL.Path, resp.Status, remote.Error)
		}
		return fmt.Errorf("ecmclient: %s %s: %s", req.Method, req.URL.Path, resp.Status)
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("ecmclient: reading %s: %w", req.URL.Path, err)
		}
		*raw = b
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("ecmclient: decoding %s reply: %w", req.URL.Path, err)
	}
	return nil
}

// ---- explicit, error-returning API ----

// AddKey registers n arrivals of a pre-digested key at tick t: a
// one-element AddEvents.
func (c *Client) AddKey(key uint64, t ecmsketch.Tick, n uint64) error {
	return c.AddEvents([]ecmsketch.Event{{Key: key, Tick: t, N: n}})
}

// AddKeyString registers n arrivals of a string key, digested with
// ecmsketch.KeyString like every local sketch's string keys.
func (c *Client) AddKeyString(key string, t ecmsketch.Tick, n uint64) error {
	return c.AddKey(ecmsketch.KeyString(key), t, n)
}

// AddEvents ships a batch of arrivals in one POST /v1/events request.
func (c *Client) AddEvents(events []ecmsketch.Event) error {
	if len(events) == 0 {
		return nil
	}
	// A fresh body per call, never pooled: net/http may still be writing it
	// when Do returns on an early error reply.
	body := wire.EncodeEvents(events)
	return c.request(http.MethodPost, "/v1/events", nil, bytes.NewReader(body), "application/json", nil)
}

// query is one POST /v1/query round trip (with ?direct=1 for the zero-merge
// path). Keys are shipped as decimal digests; pre-digest string keys with
// ecmsketch.KeyString (the digest the server applies to its own string keys).
func (c *Client) query(q ecmsketch.QueryBatch, direct bool) (ecmsketch.QueryResult, error) {
	type wireKey struct {
		IKey string `json:"ikey"`
	}
	req := struct {
		Keys     []wireKey `json:"keys,omitempty"`
		Range    uint64    `json:"range,omitempty"`
		Total    bool      `json:"total,omitempty"`
		SelfJoin bool      `json:"selfJoin,omitempty"`
	}{Range: q.Range, Total: q.Total, SelfJoin: q.SelfJoin}
	if len(q.Keys) > 0 {
		req.Keys = make([]wireKey, len(q.Keys))
		for i, k := range q.Keys {
			req.Keys[i] = wireKey{IKey: strconv.FormatUint(k, 10)}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return ecmsketch.QueryResult{}, err
	}
	var out struct {
		Estimates []float64 `json:"estimates"`
		Total     float64   `json:"total"`
		SelfJoin  float64   `json:"selfJoin"`
		Now       uint64    `json:"now"`
		Range     uint64    `json:"range"`
	}
	var params url.Values
	if direct {
		params = url.Values{"direct": {"1"}}
	}
	if err := c.request(http.MethodPost, "/v1/query", params, bytes.NewReader(body), "application/json", &out); err != nil {
		return ecmsketch.QueryResult{}, err
	}
	return ecmsketch.QueryResult{
		Estimates: out.Estimates,
		Total:     out.Total,
		SelfJoin:  out.SelfJoin,
		Now:       out.Now,
		Range:     out.Range,
	}, nil
}

// AdvanceTo moves the server's window clock forward without an arrival.
func (c *Client) AdvanceTo(t ecmsketch.Tick) error {
	return c.request(http.MethodPost, "/v1/advance", url.Values{"t": {strconv.FormatUint(t, 10)}}, nil, "", nil)
}

// PointEstimate answers a point query over the last r ticks (zero means the
// whole window) through the zero-merge path, POST /v1/query?direct=1: at a
// site the key is read from the one stripe that owns it.
func (c *Client) PointEstimate(key uint64, r ecmsketch.Tick) (float64, error) {
	res, err := c.query(ecmsketch.QueryBatch{Keys: []uint64{key}, Range: r}, true)
	if err != nil {
		return 0, err
	}
	if len(res.Estimates) != 1 {
		return 0, fmt.Errorf("ecmclient: POST /v1/query: %d estimates for one key", len(res.Estimates))
	}
	return res.Estimates[0], nil
}

// PointEstimateString answers a point query for a string key.
func (c *Client) PointEstimateString(key string, r ecmsketch.Tick) (float64, error) {
	return c.PointEstimate(ecmsketch.KeyString(key), r)
}

// IntervalEstimate answers a point query over the tick interval (from, to].
func (c *Client) IntervalEstimate(key uint64, from, to ecmsketch.Tick) (float64, error) {
	var out struct {
		Estimate float64 `json:"estimate"`
	}
	q := url.Values{
		"ikey": {strconv.FormatUint(key, 10)},
		"from": {strconv.FormatUint(from, 10)},
		"to":   {strconv.FormatUint(to, 10)},
	}
	if err := c.request(http.MethodGet, "/v1/interval", q, nil, "", &out); err != nil {
		return 0, err
	}
	return out.Estimate, nil
}

// SelfJoinEstimate answers an F₂ query over the last r ticks: a key-less
// POST /v1/query with selfJoin set.
func (c *Client) SelfJoinEstimate(r ecmsketch.Tick) (float64, error) {
	res, err := c.query(ecmsketch.QueryBatch{SelfJoin: true, Range: r}, false)
	return res.SelfJoin, err
}

// TotalEstimate answers a ‖a_r‖₁ query over the last r ticks: a key-less
// POST /v1/query with total set.
func (c *Client) TotalEstimate(r ecmsketch.Tick) (float64, error) {
	res, err := c.query(ecmsketch.QueryBatch{Total: true, Range: r}, false)
	return res.Total, err
}

// FetchSnapshotBytes pulls the server's serialized merged sketch: GET
// /v1/snapshot, the route coordinators pull (it carries X-Ecm-Now/X-Ecm-Count
// staleness headers for pullers that want them).
func (c *Client) FetchSnapshotBytes() ([]byte, error) {
	var raw []byte
	if err := c.request(http.MethodGet, "/v1/snapshot", nil, nil, "", &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// DeltaSnapshot pulls the server's snapshot incrementally:
// GET /v1/snapshot?since=<cursor>, offering gzip. Given the cursor from a
// previous pull it returns the delta payload (full == false) or, when the
// server does not recognize the cursor — a restart, a reconfiguration, the
// zero cursor — a full baseline (full == true). Payloads are applied with
// an ecmsketch.DeltaState; the returned cursor is what to present next
// time. A reply without a cursor is taken as a plain full snapshot with a
// zero cursor, so the pull loop keeps asking for full. It completes the
// ecmsketch.DeltaSnapshotter contract (and with it ecmsketch.Engine), so a
// Client plugs into any pull loop exactly like a local engine: wrapped in
// NewLocalSite, it is a coordinator site.
func (c *Client) DeltaSnapshot(since ecmsketch.Cursor) ([]byte, ecmsketch.Cursor, bool, error) {
	rep, err := wire.FetchSnapshot(c.hc, c.base+"/v1/snapshot?since="+url.QueryEscape(since.String()), c.token)
	if err != nil {
		err = fmt.Errorf("ecmclient: GET /v1/snapshot: %w", err)
		c.record(err)
		return nil, ecmsketch.Cursor{}, false, err
	}
	cur, err := ecmsketch.ParseCursor(rep.Cursor)
	if err != nil {
		cur = ecmsketch.Cursor{}
	}
	full := rep.Kind != wire.KindDelta || cur.IsZero()
	return rep.Payload, cur, full, nil
}

// Stats is the server's engine accounting.
type Stats struct {
	Width        int            `json:"width"`
	Depth        int            `json:"depth"`
	Shards       int            `json:"shards"`
	Now          ecmsketch.Tick `json:"now"`
	Count        uint64         `json:"count"`
	MemoryBytes  int            `json:"memoryBytes"`
	ViewRebuilds uint64         `json:"viewRebuilds"`
	Epsilon      float64        `json:"epsilon"`
	Delta        float64        `json:"delta"`
	Window       uint64         `json:"window"`
	Algorithm    string         `json:"algorithm"`
	APIVersion   string         `json:"apiVersion"`
}

// FetchStats reports engine dimensions, clock and footprint.
func (c *Client) FetchStats() (Stats, error) {
	var out Stats
	err := c.request(http.MethodGet, "/v1/stats", nil, nil, "", &out)
	return out, err
}

// TopK reports the server's current hottest keys within the last r ticks
// (requires the server to run with TopK enabled).
func (c *Client) TopK(r ecmsketch.Tick) ([]ecmsketch.HeavyItem, error) {
	var out struct {
		Top []struct {
			Key      string  `json:"key"`
			Estimate float64 `json:"estimate"`
		} `json:"top"`
	}
	if err := c.request(http.MethodGet, "/v1/topk", url.Values{"range": {strconv.FormatUint(r, 10)}}, nil, "", &out); err != nil {
		return nil, err
	}
	items := make([]ecmsketch.HeavyItem, 0, len(out.Top))
	for _, e := range out.Top {
		key, err := strconv.ParseUint(e.Key, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ecmclient: bad key %q in topk reply: %v", e.Key, err)
		}
		items = append(items, ecmsketch.HeavyItem{Key: key, Estimate: e.Estimate})
	}
	return items, nil
}

// ---- ecmsketch.Ingestor / Querier / Snapshotter ----

var (
	_ ecmsketch.Engine        = (*Client)(nil)
	_ ecmsketch.DirectQuerier = (*Client)(nil)
)

// Add registers one arrival of key at tick t.
func (c *Client) Add(key uint64, t ecmsketch.Tick) { c.record(c.AddKey(key, t, 1)) }

// AddN registers n arrivals of key at tick t.
func (c *Client) AddN(key uint64, t ecmsketch.Tick, n uint64) { c.record(c.AddKey(key, t, n)) }

// AddString registers one arrival of a string-keyed item.
func (c *Client) AddString(key string, t ecmsketch.Tick) { c.record(c.AddKeyString(key, t, 1)) }

// AddBatch ships a batch of arrivals in one request.
func (c *Client) AddBatch(events []ecmsketch.Event) { c.record(c.AddEvents(events)) }

// Advance moves the server's window clock forward.
func (c *Client) Advance(t ecmsketch.Tick) { c.record(c.AdvanceTo(t)) }

// Estimate answers a point query over the last r ticks.
func (c *Client) Estimate(key uint64, r ecmsketch.Tick) float64 {
	v, err := c.PointEstimate(key, r)
	c.record(err)
	return v
}

// EstimateString answers a point query for a string key.
func (c *Client) EstimateString(key string, r ecmsketch.Tick) float64 {
	v, err := c.PointEstimateString(key, r)
	c.record(err)
	return v
}

// InnerProduct estimates the inner product between the server's stream and
// another (compatible) sketch's stream over the last r ticks, by pulling
// the server's merged sketch (see Snapshot) and running the query locally.
func (c *Client) InnerProduct(other *ecmsketch.Sketch, r ecmsketch.Tick) (float64, error) {
	sk, err := c.Snapshot()
	if err != nil {
		return 0, err
	}
	return sk.InnerProduct(other, r)
}

// SelfJoin estimates F₂ over the last r ticks.
func (c *Client) SelfJoin(r ecmsketch.Tick) float64 {
	v, err := c.SelfJoinEstimate(r)
	c.record(err)
	return v
}

// EstimateTotal estimates ‖a_r‖₁ over the last r ticks.
func (c *Client) EstimateTotal(r ecmsketch.Tick) float64 {
	v, err := c.TotalEstimate(r)
	c.record(err)
	return v
}

// QueryBatch answers a multi-key query in one POST /v1/query round trip:
// point estimates for every key plus the optional aggregates, all evaluated
// by the server against one consistent cut of its stream — the
// ecmsketch.BatchQuerier contract.
func (c *Client) QueryBatch(q ecmsketch.QueryBatch) (ecmsketch.QueryResult, error) {
	res, err := c.query(q, false)
	c.record(err)
	return res, err
}

// QueryDirect answers a point-only batch through the server's zero-merge
// path (POST /v1/query?direct=1): each key is read from the single stripe
// that owns it, with no merged view built or consulted. Zero merge error
// and no rebuild cost, but no consistency across the batch, and aggregate
// requests (Total/SelfJoin) are rejected by the server with 400 — the
// ecmsketch.DirectQuerier contract, forwarded.
func (c *Client) QueryDirect(q ecmsketch.QueryBatch) (ecmsketch.QueryResult, error) {
	res, err := c.query(q, true)
	c.record(err)
	return res, err
}

// Now reports the server's latest observed tick.
func (c *Client) Now() ecmsketch.Tick {
	st, err := c.FetchStats()
	c.record(err)
	return st.Now
}

// Marshal pulls the server's serialized merged sketch; nil on transport
// failure (recorded in Err).
func (c *Client) Marshal() []byte {
	raw, err := c.FetchSnapshotBytes()
	c.record(err)
	return raw
}

// Snapshot pulls and decodes the server's merged sketch — ready to query
// locally or Merge with other sites' summaries.
func (c *Client) Snapshot() (*ecmsketch.Sketch, error) {
	raw, err := c.FetchSnapshotBytes()
	if err != nil {
		c.record(err)
		return nil, err
	}
	return ecmsketch.Unmarshal(raw)
}

// SiteInfo is one coordinator member's health, as reported by a running
// ecmcoord's GET /v1/sites.
type SiteInfo struct {
	Name          string `json:"name"`
	Healthy       bool   `json:"healthy"`
	Failures      int    `json:"failures"`
	BackoffRounds uint64 `json:"backoffRounds"`
	LastError     string `json:"lastError"`
	HasBaseline   bool   `json:"hasBaseline"`
}

// Sites lists a coordinator's membership with per-site health. Only
// coordinators (ecmcoord) expose the route; against a plain ecmserve
// the call fails with a 404.
func (c *Client) Sites() ([]SiteInfo, error) {
	var out struct {
		Sites []SiteInfo `json:"sites"`
	}
	if err := c.request(http.MethodGet, "/v1/sites", nil, nil, "", &out); err != nil {
		return nil, err
	}
	return out.Sites, nil
}

// RegisterSite adds the ecmserve deployment at siteURL to a running
// coordinator's membership (POST /v1/sites); it joins the next pull round.
// A non-empty name gives the site a stable identity across re-registrations
// at new addresses — re-registering an existing name replaces the member
// and re-bootstraps it from a full baseline.
func (c *Client) RegisterSite(siteURL, name string) error {
	body, err := json.Marshal(map[string]string{"url": siteURL, "name": name})
	if err != nil {
		return err
	}
	return c.request(http.MethodPost, "/v1/sites", nil, bytes.NewReader(body), "application/json", nil)
}

// UnregisterSite removes the member named name (the site's base URL unless
// it registered under an explicit name) from a running coordinator.
func (c *Client) UnregisterSite(name string) error {
	return c.request(http.MethodDelete, "/v1/sites", url.Values{"name": {name}}, nil, "", nil)
}
