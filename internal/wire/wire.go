// Package wire is the shared /v1 HTTP codec of this repository: the
// request-parsing, reply-encoding and snapshot-transfer conventions that
// every tier serving (or consuming) the versioned API must agree on.
// ecmserver (at a site and under cmd/ecmcoord) and the coordinator's own
// routes both build on it, so the two cannot drift; ecmclient and the
// coordinator's HTTP transport consume snapshots through it, so gzip
// negotiation and transfer accounting live in exactly one place.
//
// Conventions encoded here:
//
//   - Keys arrive as ?key= (string, digested with the library's KeyString)
//     or ?ikey= (decimal uint64 — 64-bit digests exceed the float64-exact
//     integer range of JSON, so they travel as strings everywhere).
//   - ?strings=1 opts a reply into decimal-string encoding for every
//     64-bit tick/count field (now, range, from, to, count, ...), for
//     JavaScript-family clients above 2^53.
//   - Snapshot payloads (full or delta) are application/octet-stream with
//     X-Ecm-Now/X-Ecm-Count advisory headers, X-Ecm-Cursor carrying the
//     delta-protocol cursor and X-Ecm-Delta naming the payload kind
//     ("full" or "delta"). Bodies gzip when the request offers
//     Accept-Encoding: gzip and the payload is big enough to care.
package wire

import (
	"bytes"
	"compress/gzip"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"ecmsketch/internal/core"
	"ecmsketch/internal/hashing"
)

// Snapshot-transfer headers of the /v1 protocol.
const (
	HeaderNow    = "X-Ecm-Now"
	HeaderCount  = "X-Ecm-Count"
	HeaderCursor = "X-Ecm-Cursor"
	HeaderKind   = "X-Ecm-Delta"
)

// Payload kinds carried in HeaderKind.
const (
	KindFull  = "full"
	KindDelta = "delta"
)

// MaxSnapshotBytes bounds any snapshot body read through this package
// (1 GiB, the historical ecmcoord limit), so a misbehaving peer cannot
// exhaust puller memory. The same cap applies after gzip expansion.
const MaxSnapshotBytes = 1 << 30

// gzipMinSize is the smallest payload worth compressing: delta payloads of
// a few dozen bytes would grow under the gzip header.
const gzipMinSize = 512

// Error writes the /v1 JSON error shape with the given status code.
func Error(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Respond writes a 200 JSON reply.
func Respond(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ParseKey resolves the queried item key from either ?key= (string,
// digested with the library digest) or ?ikey= (raw decimal uint64).
func ParseKey(r *http.Request) (uint64, error) {
	if k := r.URL.Query().Get("key"); k != "" {
		return hashing.KeyString(k), nil
	}
	if k := r.URL.Query().Get("ikey"); k != "" {
		v, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad ikey: %v", err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("missing key or ikey parameter")
}

// ParseU64 reads an optional uint64 query parameter.
func ParseU64(r *http.Request, name string, def uint64) (uint64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", name, err)
	}
	return v, nil
}

// WantStrings reports whether the request opted into string-encoded 64-bit
// reply fields via ?strings=1. JSON numbers are read as float64 by
// JavaScript-family clients, which silently rounds integers past 2^53;
// request-side uint64 keys already travel as decimal strings (ikey), and
// this opt-in extends the same convention to 64-bit tick/count reply
// fields. Numeric replies stay the default for compatibility.
func WantStrings(r *http.Request) bool { return r.URL.Query().Get("strings") == "1" }

// U64Field renders a 64-bit tick/count reply field: a decimal string when
// the request opted in via ?strings=1, a JSON number otherwise.
func U64Field(asStrings bool, v uint64) any {
	if asStrings {
		return strconv.FormatUint(v, 10)
	}
	return v
}

// WantDirect reports whether a /v1/query request opted into the zero-merge
// direct read path via ?direct=1: each key answered from the single stripe
// that owns it, with no merged view built or consulted. The trade is
// documented on the DirectQuerier contract — zero merge error and no
// rebuild cost, but no consistency across the batch and point queries only
// (aggregates are rejected). Both the site server and the coordinator
// surface honor the same parameter, so a client can flip one query string
// without caring which tier answers.
func WantDirect(r *http.Request) bool { return r.URL.Query().Get("direct") == "1" }

// CheckBearer reports whether the request carries the expected bearer
// token. The comparison is constant-time in the token bytes, so a probing
// client learns nothing about how much of its guess matched. (Length still
// leaks, as with any constant-time compare of variable-length secrets;
// tokens are not guessable by length.)
func CheckBearer(r *http.Request, token string) bool {
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) < len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(token)) == 1
}

// RequireBearer wraps a handler with bearer-token auth: requests without
// the exact token get the /v1 JSON 401. An empty token disables auth and
// returns next unchanged, so servers thread their (possibly empty)
// configured token through unconditionally.
func RequireBearer(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !CheckBearer(r, token) {
			w.Header().Set("WWW-Authenticate", "Bearer")
			Error(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// MaxQueryKeys bounds the per-request key count of POST /v1/query. A batch
// of point queries is answered (and its result buffered) in full, so unlike
// the chunk-flushed ingest endpoints the request size itself must be
// capped; oversized batches are rejected with 400 before their tail is even
// parsed.
const MaxQueryKeys = 4096

// MaxEventCount bounds the arrival count one /v1/events element or
// /v1/batch line may claim. Ingest costs one insert per unit of count under
// the stripe lock, so an uncapped "n" lets a few well-formed bytes buy
// unbounded work; a record claiming more is rejected with 400 like any other
// bad record (clients with heavier keys split them across records). Library
// callers are not capped.
const MaxEventCount = 1 << 20

// The two bounds a JSON request body is scanned under: no string token (a
// key, a field name, a string inside an unknown field) may exceed
// MaxStringToken bytes between its quotes, and the value of an unknown field
// may nest at most MaxSkipDepth arrays/objects — lowered from encoding/json's
// 10000, since nothing the routes understand nests at all. Either is answered
// 400; without them one element could buffer the whole body.
const (
	MaxStringToken = 64 << 10
	MaxSkipDepth   = 32
)

// Fields of the one-item objects on the wire, ordered so that a route names
// the last one it knows: /v1/query elements stop at ikey, /v1/events
// elements at n.
const (
	fieldNone = iota
	fieldKey
	fieldIKey
	fieldT
	fieldN
)

var fieldNames = [...][]byte{fieldKey: []byte("key"), fieldIKey: []byte("ikey"), fieldT: []byte("t"), fieldN: []byte("n")}

// item reads one {"key"|"ikey", "t", "n"} object at the cursor, recognising
// fields up to last and skipping the others, and resolves the key it names
// once the object has closed: as encoding/json had it, names fold case, null
// changes nothing, the last duplicate of a field wins, and a non-empty key
// beats ikey whatever their order — an unparsable ikey behind one is no error.
func (s *Scanner) item(last int) (key, t, n uint64, err error) {
	var (
		ikey      uint64
		hasKey    bool // the last "key" was a non-empty string
		ikeyState int  // of the last "ikey": 0 absent or empty, 1 parsed, -1 not a uint64
	)
	if err = s.want('{'); err != nil {
		return 0, 0, 0, err
	}
	for first := true; ; first = false {
		var name []byte
		var ok bool
		if name, ok, err = s.member(first); err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			break
		}
		f := fieldNone
		switch string(name) {
		case "key":
			f = fieldKey
		case "ikey":
			f = fieldIKey
		case "t":
			f = fieldT
		case "n":
			f = fieldN
		default:
			for i := fieldKey; i <= fieldN; i++ {
				if bytes.EqualFold(name, fieldNames[i]) {
					f = i
				}
			}
		}
		if f > last {
			f = fieldNone
		}
		if err = s.want(':'); err != nil {
			return 0, 0, 0, err
		}
		switch f {
		case fieldNone:
			err = s.skip(MaxSkipDepth)
		case fieldT:
			err = s.uint(&t)
		case fieldN:
			err = s.uint(&n)
		default: // key or ikey: a string, or null
			if s.peek() == 'n' {
				err = s.lit("null")
				break
			}
			var v []byte
			if v, err = s.quoted(); err != nil {
				break
			}
			if f == fieldKey {
				key, hasKey = hashing.KeyBytes(v), len(v) > 0
				break
			}
			ikey, ikeyState = 0, 0
			for i, c := range v { // strconv.ParseUint(v, 10, 64), without the string
				d := uint64(c - '0')
				if ikeyState = 1; d > 9 || !pushDigit(&ikey, d, i) {
					ikeyState = -1
					break
				}
			}
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	switch {
	case hasKey:
	case ikeyState < 0:
		err = errors.New("bad ikey: want a decimal uint64")
	case ikeyState == 0:
		err = errors.New("missing key or ikey")
	default:
		key = ikey
	}
	if err == nil && n > MaxEventCount {
		err = fmt.Errorf("n %d: at most %d arrivals per event", n, MaxEventCount)
	}
	return key, t, n, err
}

// NextEvent decodes the next element of a POST /v1/events body,
//
//	[{"key":"/home","t":12345,"n":2}, {"ikey":"17446744073709551615","t":12346}]
//
// reporting false after the closing ']'; bytes behind it are not read. An
// error names the element it stopped at.
func (s *Scanner) NextEvent() (core.Event, bool, error) {
	if s.n < 0 {
		if s.want('[') != nil {
			return core.Event{}, false, errors.New("bad events body: want a JSON array")
		}
		s.n = 0
	}
	if ok, err := s.elem(s.n == 0); err != nil {
		return core.Event{}, false, fmt.Errorf("bad events body: unterminated array: %w", err)
	} else if !ok {
		return core.Event{}, false, nil
	}
	// Top up so a whole canonical element is in view if the body has one;
	// keeping under 81 bytes, the refill cannot trip MaxStringToken.
	if s.end-s.pos < maxCanonicalEvent {
		s.refill(s.pos)
	}
	if ev, m := canonicalEvent(s.buf[s.pos:s.end]); m > 0 {
		s.pos += m
		s.n++
		return ev, true, nil
	}
	key, t, n, err := s.item(fieldN)
	if err == nil && t == 0 {
		err = errors.New("missing or zero t")
	}
	if err != nil {
		return core.Event{}, false, fmt.Errorf("event %d: %w", s.n, err)
	}
	s.n++
	return core.Event{Key: key, Tick: t, N: n}, true, nil
}

// EncodeEvents returns the POST /v1/events body for events in one exactly
// presized allocation: a {"ikey":"<decimal>","t":<tick>[,"n":<count>]} per
// event, n omitted when zero — byte for byte what encoding/json made of those
// fields.
func EncodeEvents(events []core.Event) []byte {
	size := len("[") + max(1, len(events)*len(`{"ikey":"","t":},`)) // each event closes with ',' or ']'
	for _, ev := range events {
		size += decLen(ev.Key) + decLen(ev.Tick)
		if ev.N != 0 {
			size += len(`,"n":`) + decLen(ev.N)
		}
	}
	dst := append(make([]byte, 0, size), '[')
	for i, ev := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(append(dst, `{"ikey":"`...), ev.Key, 10)
		dst = strconv.AppendUint(append(dst, `","t":`...), ev.Tick, 10)
		if ev.N != 0 {
			dst = strconv.AppendUint(append(dst, `,"n":`...), ev.N, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// pow10 holds 10^i for every i a uint64 reaches.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decLen is the number of decimal digits of v: 1233/4096 is log10(2) from
// below, so the bit length gives the digit count or the one under it, and one
// compare with a power of ten picks which (v|1 so that 0 has one digit).
func decLen(v uint64) int {
	v |= 1
	d := bits.Len64(v) * 1233 >> 12
	if v >= pow10[d] {
		d++
	}
	return d
}

// maxCanonicalEvent is the longest element EncodeEvents can write.
const maxCanonicalEvent = len(`{"ikey":"18446744073709551615","t":18446744073709551615,"n":18446744073709551615}`)

// canonicalEvent is EncodeEvents' inverse on one element: it decodes
// {"ikey":"<digits>","t":<digits>[,"n":<digits>]}, spelled byte for byte so,
// from the front of b and returns the event and the bytes it took. It
// declines — returns 0 — on anything else, and on whatever item would reject
// or read differently: whitespace, another field or order, an escape in the
// key, a number running to the end of b (its digits may go on unread), a t or
// n with a leading zero (so also t = 0 and n = 0), n over MaxEventCount, a
// value past 2^64−1. A declined element is read by item, so every rejection
// and its error text stay the general path's.
func canonicalEvent(b []byte) (core.Event, int) {
	var ev core.Event
	i := canonicalLit(b, 0, `{"ikey":"`)
	i = canonicalUint(b, i, &ev.Key, true)
	i = canonicalLit(b, i, `","t":`)
	i = canonicalUint(b, i, &ev.Tick, false)
	if j := canonicalLit(b, i, `,"n":`); j > 0 {
		if i = canonicalUint(b, j, &ev.N, false); ev.N > MaxEventCount {
			i = -1
		}
	}
	if i < 0 || i == len(b) || b[i] != '}' {
		return core.Event{}, 0
	}
	return ev, i + 1
}

// canonicalLit returns the index behind lit if b holds it at i, else -1; so
// does canonicalUint, and both pass a -1 on, so canonicalEvent reads straight
// down and checks once.
func canonicalLit(b []byte, i int, lit string) int {
	if i < 0 || len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// canonicalUint reads the digits at b[i:] into *v and returns the index of the
// byte behind them, or -1 on no digits, a leading zero unless zeros, a value
// past 2^64−1, or digits running to the end of b.
func canonicalUint(b []byte, i int, v *uint64, zeros bool) int {
	if i < 0 {
		return -1
	}
	var acc uint64
	j := i
	for ; j < len(b); j++ {
		d := uint64(b[j] - '0')
		if d > 9 {
			break
		}
		if !pushDigit(&acc, d, j-i) {
			return -1
		}
	}
	if j == i || j == len(b) || (!zeros && b[i] == '0') {
		return -1
	}
	*v = acc
	return j
}

// ParseQueryBody decodes a POST /v1/query request body into a QueryBatch
// under the strict wire semantics of the versioned API: the body is scanned
// token by token with the keys array consumed element-wise, so request
// memory stays bounded — batches beyond MaxQueryKeys are rejected
// mid-stream, and duplicate or unknown fields are rejected rather than
// buffered. Every tier serving the route (ecmserver, the ecmcoord
// coordinator surface) validates through this one parser.
func ParseQueryBody(body io.Reader) (core.QueryBatch, error) {
	var q core.QueryBatch
	s := NewScanner(body)
	defer s.Release()
	if s.want('{') != nil {
		return q, fmt.Errorf("bad query body: want a JSON object")
	}
	seen := map[string]bool{}
	for first := true; ; first = false {
		name, ok, err := s.member(first)
		if err != nil {
			return q, fmt.Errorf("bad query body: %v", err)
		}
		if !ok {
			return q, nil
		}
		field := string(name)
		if seen[field] {
			// Rejecting duplicates keeps the parse strict (last-wins would
			// mask client bugs) and stops repeated keys arrays from evading
			// the per-query cap.
			return q, fmt.Errorf("duplicate query field %q", field)
		}
		seen[field] = true
		if err := s.want(':'); err != nil {
			return q, fmt.Errorf("bad query body: %v", err)
		}
		switch field {
		case "keys":
			if s.want('[') != nil {
				return q, fmt.Errorf("bad query body: keys must be an array")
			}
			for first := true; ; first = false {
				if ok, err := s.elem(first); err != nil {
					return q, fmt.Errorf("bad query body: unterminated keys array")
				} else if !ok {
					break
				}
				if len(q.Keys) == MaxQueryKeys {
					return q, fmt.Errorf("too many keys: at most %d per query", MaxQueryKeys)
				}
				key, _, _, err := s.item(fieldIKey)
				if err != nil {
					return q, fmt.Errorf("key %d: %v", len(q.Keys), err)
				}
				q.Keys = append(q.Keys, key)
			}
		case "range":
			if err := s.uint(&q.Range); err != nil {
				return q, fmt.Errorf("bad range: %v", err)
			}
		case "total":
			if err := s.boolean(&q.Total); err != nil {
				return q, fmt.Errorf("bad total: %v", err)
			}
		case "selfJoin":
			if err := s.boolean(&q.SelfJoin); err != nil {
				return q, fmt.Errorf("bad selfJoin: %v", err)
			}
		default:
			return q, fmt.Errorf("unknown query field %q", field)
		}
	}
}

// ParseQueryParams decodes the GET form of /v1/query from the URL query
// string: repeated key= (string, digested server-side) and ikey= (decimal
// uint64) parameters name the queried items — mixed freely, answered in
// request order — range= gives the window suffix, and total=1 / selfJoin=1
// request the aggregates. The POST body form (ParseQueryBody) and this one
// build the same QueryBatch, under the same MaxQueryKeys cap; GET is the
// curl-friendly spelling for short batches, POST the bulk one.
//
// The raw query string is walked parameter by parameter (rather than
// through url.Values, which buckets by name) so a request interleaving
// key= and ikey= parameters gets its estimates back in the order it asked.
func ParseQueryParams(r *http.Request) (core.QueryBatch, error) {
	var q core.QueryBatch
	raw := r.URL.RawQuery
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" {
			continue
		}
		rawName, rawVal, _ := strings.Cut(pair, "=")
		name, err := url.QueryUnescape(rawName)
		if err != nil {
			return q, fmt.Errorf("bad query parameter: %v", err)
		}
		if name != "key" && name != "ikey" {
			continue
		}
		if len(q.Keys) == MaxQueryKeys {
			return q, fmt.Errorf("too many keys: at most %d per query", MaxQueryKeys)
		}
		val, err := url.QueryUnescape(rawVal)
		if err != nil {
			return q, fmt.Errorf("bad %s parameter: %v", name, err)
		}
		if val == "" {
			return q, fmt.Errorf("key %d: empty %s parameter", len(q.Keys), name)
		}
		if name == "key" {
			q.Keys = append(q.Keys, hashing.KeyString(val))
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return q, fmt.Errorf("key %d: bad ikey: %v", len(q.Keys), err)
		}
		q.Keys = append(q.Keys, v)
	}
	rng, err := ParseU64(r, "range", 0)
	if err != nil {
		return q, err
	}
	q.Range = rng
	q.Total = r.URL.Query().Get("total") == "1"
	q.SelfJoin = r.URL.Query().Get("selfJoin") == "1"
	return q, nil
}

// SnapshotMeta is the out-of-band half of a snapshot reply: advisory
// clock/count, and — when the delta protocol is in play — the cursor the
// payload brings the puller to plus the payload kind.
type SnapshotMeta struct {
	Now    uint64
	Count  uint64
	Cursor string // "" omits the header (plain full replies)
	Kind   string // "", KindFull or KindDelta
}

// acceptsGzip reports whether the request offers gzip. Coding tokens are
// matched per comma-separated entry, with the qvalue parsed numerically so
// every RFC 9110 spelling of an explicit refusal ("q=0", "q=0.0",
// "q=0.000") is honored, not mistaken for an offer.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		if hasQ {
			qv := strings.TrimSpace(q)
			if cut, ok := strings.CutPrefix(qv, "q="); ok {
				if w, err := strconv.ParseFloat(strings.TrimSpace(cut), 64); err == nil && w == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// WriteSnapshot ships one snapshot payload (full or delta) with the
// protocol headers, honoring Accept-Encoding: gzip for payloads worth
// compressing. Content-Length is always exact — pullers that count
// transferred bytes see the compressed size.
func WriteSnapshot(w http.ResponseWriter, r *http.Request, payload []byte, m SnapshotMeta) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderNow, strconv.FormatUint(m.Now, 10))
	h.Set(HeaderCount, strconv.FormatUint(m.Count, 10))
	if m.Cursor != "" {
		h.Set(HeaderCursor, m.Cursor)
	}
	if m.Kind != "" {
		h.Set(HeaderKind, m.Kind)
	}
	if len(payload) >= gzipMinSize && acceptsGzip(r) {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(payload) //nolint:errcheck // bytes.Buffer writes cannot fail
		zw.Close()        //nolint:errcheck
		h.Set("Content-Encoding", "gzip")
		h.Set("Vary", "Accept-Encoding")
		h.Set("Content-Length", strconv.Itoa(buf.Len()))
		w.Write(buf.Bytes())
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	w.Write(payload)
}

// SnapshotReply is one fetched snapshot: the decoded payload, the bytes
// that actually crossed the wire (compressed when the server gzipped), and
// the protocol headers.
type SnapshotReply struct {
	Payload []byte
	Wire    int
	Now     uint64
	Count   uint64
	Cursor  string
	Kind    string
}

// FetchSnapshot GETs a snapshot URL, explicitly offering gzip (which
// disables Go's transparent decompression precisely so the raw transfer
// size can be measured) and decompressing the body when the server took the
// offer. A non-empty token is sent as a bearer credential. Any reply but
// 200 is an error naming the status.
func FetchSnapshot(hc *http.Client, url, token string) (SnapshotReply, error) {
	var rep SnapshotReply
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return rep, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return rep, fmt.Errorf("snapshot pull returned status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxSnapshotBytes))
	if err != nil {
		return rep, fmt.Errorf("reading snapshot body: %w", err)
	}
	rep.Wire = len(raw)
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return rep, fmt.Errorf("bad gzip snapshot body: %w", err)
		}
		rep.Payload, err = io.ReadAll(io.LimitReader(zr, MaxSnapshotBytes))
		if err != nil {
			return rep, fmt.Errorf("decompressing snapshot body: %w", err)
		}
		if err := zr.Close(); err != nil {
			return rep, fmt.Errorf("bad gzip snapshot body: %w", err)
		}
	} else {
		rep.Payload = raw
	}
	if len(rep.Payload) == 0 {
		return rep, errors.New("empty snapshot body")
	}
	rep.Now, _ = strconv.ParseUint(resp.Header.Get(HeaderNow), 10, 64)
	rep.Count, _ = strconv.ParseUint(resp.Header.Get(HeaderCount), 10, 64)
	rep.Cursor = resp.Header.Get(HeaderCursor)
	rep.Kind = resp.Header.Get(HeaderKind)
	return rep, nil
}
