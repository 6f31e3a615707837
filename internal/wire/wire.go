// Package wire is the shared /v1 HTTP codec of this repository: the
// request-parsing, reply-encoding and snapshot-transfer conventions that
// every tier serving (or consuming) the versioned API must agree on.
// ecmserver's shared read routes and the coordinator's own routes both
// build on it, so the two cannot drift; ecmclient and the
// coordinator's HTTP transport consume snapshots through it, so snapshot
// transfer lives in exactly one place.
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
//     ("full" or "delta"). Bodies are never compressed: the EH cell
//     encoding carries no redundancy a compressor would find, so the
//     payload is the transfer, whatever Accept-Encoding offers.
package wire

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

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
// (1 GiB, the historical coordinator limit), so a misbehaving peer cannot
// exhaust puller memory.
const MaxSnapshotBytes = 1 << 30

// Error writes the /v1 JSON error shape with the given status code.
func Error(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Respond writes a 200 JSON reply, or a 500 in the error shape when
// encoding/json refuses v (a NaN or an infinity, say).
func Respond(w http.ResponseWriter, v any) { writeJSON(w, http.StatusOK, v) }

// writeJSON encodes v in full before the status line goes out, so a value
// that cannot be encoded is answered 500 rather than 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		json.NewEncoder(&buf).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck // a string map always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
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
// the chunk-flushed /v1/events the request size itself must be capped;
// oversized batches are rejected with 400 before their tail is even parsed.
const MaxQueryKeys = 4096

// MaxEventCount bounds the arrival count one /v1/events element may claim.
// Ingest costs one insert per unit of count under the stripe lock, so an
// uncapped "n" lets a few well-formed bytes buy unbounded work; an element
// claiming more is rejected with 400 like any other bad element (clients
// with heavier keys split them across elements). Library callers are not
// capped.
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
// fields. The body cannot carry tick 0, so it is written as 1: the write rule
// (see core.Event) admits both alike at any engine clock.
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
		dst = strconv.AppendUint(append(dst, `","t":`...), core.ClampTick(ev.Tick, 0), 10)
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

// EncodeQuery returns the POST /v1/query body for q in one presized
// allocation, {"keys":[{"ikey":"<decimal>"},…],"range":…,"total":true,
// "selfJoin":true} with each member left out when empty, zero or false — byte
// for byte what encoding/json made of that shape.
func EncodeQuery(q core.QueryBatch) []byte {
	size := len(`{"keys":[],"range":,"total":true,"selfJoin":true}`) + decLen(q.Range) + len(q.Keys)*len(`{"ikey":""},`)
	for _, k := range q.Keys {
		size += decLen(k)
	}
	dst := append(make([]byte, 0, size), '{')
	if len(q.Keys) > 0 {
		dst = append(dst, `"keys":[`...)
		for i, k := range q.Keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(strconv.AppendUint(append(dst, `{"ikey":"`...), k, 10), `"}`...)
		}
		dst = append(dst, ']')
	}
	if q.Range != 0 {
		dst = strconv.AppendUint(append(comma(dst), `"range":`...), q.Range, 10)
	}
	if q.Total {
		dst = append(comma(dst), `"total":true`...)
	}
	if q.SelfJoin {
		dst = append(comma(dst), `"selfJoin":true`...)
	}
	return append(dst, '}')
}

// comma appends the ',' before an object member unless the object has just
// opened.
func comma(dst []byte) []byte {
	if dst[len(dst)-1] == '{' {
		return dst
	}
	return append(dst, ',')
}

// maxCanonicalKey is the longest keys element EncodeQuery writes.
const maxCanonicalKey = len(`{"ikey":"18446744073709551615"}`)

// canonicalKey is EncodeQuery's inverse on one keys element: it decodes
// {"ikey":"<digits>"}, spelled byte for byte so, from the front of b and
// returns the key and the bytes it took, or declines — 0 — on anything else,
// leaving the element to item like canonicalEvent does.
func canonicalKey(b []byte) (uint64, int) {
	var key uint64
	i := canonicalUint(b, canonicalLit(b, 0, `{"ikey":"`), &key, true)
	if i = canonicalLit(b, i, `"}`); i < 0 {
		return 0, 0
	}
	return key, i
}

// maxFloat is the longest float64 appendFloat writes: a sign and 17
// significant digits behind either "0.00000" (just above 1e-6) or a point and
// an exponent ("e-308").
const maxFloat = len("-0.0000012345678901234567")

// typicalFloat is a typical estimate's width: EH estimates are whole or
// half counts ("12345.5").
const typicalFloat = len("12345.5")

// maxQueryReply bounds the reply EncodeQueryReply writes for keys estimates.
func maxQueryReply(keys int) int {
	return len(`{"estimates":[],"total":,"selfJoin":,"now":"","range":""}`+"\n") +
		keys*(maxFloat+1) + 2*maxFloat + 2*len("18446744073709551615")
}

// EncodeQueryReply returns the POST /v1/query reply for res, in a buffer
// sized for typical estimates and grown past them:
// {"estimates":[…],"total":…,"selfJoin":…,"now":…,"range":…} and a
// newline, total and selfJoin present only when asked for, now and range
// quoted under ?strings=1 — byte for byte what json.Encoder wrote of that
// shape. It reports false on a NaN or an infinity, which encoding/json
// refuses to encode.
func EncodeQueryReply(res core.QueryResult, total, selfJoin, asStrings bool) ([]byte, bool) {
	dst := append(make([]byte, 0, maxQueryReply(0)+len(res.Estimates)*(typicalFloat+1)), `{"estimates":[`...)
	ok := true
	for i, v := range res.Estimates {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, ok = appendFloat(dst, v, ok)
	}
	dst = append(dst, ']')
	if total {
		dst, ok = appendFloat(append(dst, `,"total":`...), res.Total, ok)
	}
	if selfJoin {
		dst, ok = appendFloat(append(dst, `,"selfJoin":`...), res.SelfJoin, ok)
	}
	dst = appendTick(append(dst, `,"now":`...), res.Now, asStrings)
	dst = appendTick(append(dst, `,"range":`...), res.Range, asStrings)
	return append(dst, "}\n"...), ok
}

// appendFloat appends v as encoding/json spells a float64 — the shortest
// decimal that reads back as v, in 'e' form below 1e-6 and from 1e21 on (a
// negative exponent's leading zero dropped, e-07 → e-7), in 'f' form
// otherwise — and
// passes ok on, false once v is not finite.
func appendFloat(dst []byte, v float64, ok bool) ([]byte, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return dst, false
	}
	f := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		f = 'e'
	}
	dst = strconv.AppendFloat(dst, v, f, -1, 64)
	if n := len(dst); f == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, ok
}

// appendTick appends a 64-bit tick reply field, quoted under ?strings=1
// (see U64Field).
func appendTick(dst []byte, v uint64, asStrings bool) []byte {
	if !asStrings {
		return strconv.AppendUint(dst, v, 10)
	}
	return append(strconv.AppendUint(append(dst, '"'), v, 10), '"')
}

// queryReply is the /v1/query reply as encoding/json reads it, for the
// replies decodeQueryReply declines.
type queryReply struct {
	Estimates []float64 `json:"estimates"`
	Total     float64   `json:"total"`
	SelfJoin  float64   `json:"selfJoin"`
	Now       uint64    `json:"now"`
	Range     uint64    `json:"range"`
}

// replyBufs pools the buffers ReadQueryReply reads replies into; it decodes
// out of them, so nothing it returns points into one.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadQueryReply reads the POST /v1/query reply to a batch of keys keys from
// body. It reads up to the longest reply MaxQueryKeys keys can have and
// decodes it in one pass when it is spelled as EncodeQueryReply writes
// numbers; anything else, or a body past that bound, goes to a json.Decoder
// over the same bytes, which reads it as it always has: names fold case,
// unknown fields are skipped, null leaves a field alone, bytes behind the
// object are ignored.
func ReadQueryReply(body io.Reader, keys int) (core.QueryResult, error) {
	buf := replyBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		replyBufs.Put(buf)
	}()
	if _, err := buf.ReadFrom(io.LimitReader(body, int64(maxQueryReply(MaxQueryKeys)))); err != nil {
		return core.QueryResult{}, err
	}
	if res, ok := decodeQueryReply(buf.Bytes(), keys); ok {
		return res, nil
	}
	var out queryReply
	if err := json.NewDecoder(io.MultiReader(buf, body)).Decode(&out); err != nil {
		return core.QueryResult{}, err
	}
	return core.QueryResult{Estimates: out.Estimates, Total: out.Total, SelfJoin: out.SelfJoin, Now: out.Now, Range: out.Range}, nil
}

// decodeQueryReply is EncodeQueryReply's inverse on the numeric spelling: it
// reads b as exactly that object and an optional newline, with room for keys
// estimates presized. It declines — false — on anything else: whitespace,
// another field, order or case, null, a quoted tick, a number outside JSON's
// grammar or float64's range, a tick with a leading zero or past 2^64−1,
// bytes behind the object. What it accepts, json.Unmarshal reads to the same
// bits.
func decodeQueryReply(b []byte, keys int) (core.QueryResult, bool) {
	res := core.QueryResult{Estimates: make([]float64, 0, keys)}
	i := canonicalLit(b, 0, `{"estimates":[`)
	if i > 0 && i < len(b) && b[i] != ']' {
		for {
			var v float64
			i = canonicalFloat(b, i, &v)
			res.Estimates = append(res.Estimates, v)
			if i < 0 || b[i] != ',' {
				break
			}
			i++
		}
	}
	i = canonicalLit(b, i, "]")
	if j := canonicalLit(b, i, `,"total":`); j > 0 {
		i = canonicalFloat(b, j, &res.Total)
	}
	if j := canonicalLit(b, i, `,"selfJoin":`); j > 0 {
		i = canonicalFloat(b, j, &res.SelfJoin)
	}
	i = canonicalTick(b, canonicalLit(b, i, `,"now":`), &res.Now)
	i = canonicalTick(b, canonicalLit(b, i, `,"range":`), &res.Range)
	if i = canonicalLit(b, i, "}"); i < 0 || (i < len(b) && string(b[i:]) != "\n") {
		return core.QueryResult{}, false
	}
	return res, true
}

// canonicalTick is canonicalUint under JSON's number grammar: 0 alone, or
// digits without a leading zero.
func canonicalTick(b []byte, i int, v *uint64) int {
	j := canonicalUint(b, i, v, true)
	if j > i+1 && b[i] == '0' {
		return -1
	}
	return j
}

// canonicalFloat reads the JSON number at b[i:] into *v, through the
// strconv.ParseFloat encoding/json calls, and returns the index behind it, or
// -1 on a number outside JSON's grammar, one that runs to the end of b or one
// past float64's range.
func canonicalFloat(b []byte, i int, v *float64) int {
	if i < 0 {
		return -1
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = skipDigits(b, j)
	default:
		return -1
	}
	if j < len(b) && b[j] == '.' {
		if k := skipDigits(b, j+1); k > j+1 {
			j = k
		} else {
			return -1
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := skipDigits(b, j); k > j {
			j = k
		} else {
			return -1
		}
	}
	if j == len(b) {
		return -1
	}
	f, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return -1
	}
	*v = f
	return j
}

// skipDigits returns the index of the first byte at or behind i of b that is
// not a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// ParseQueryBody decodes a POST /v1/query request body into a QueryBatch
// under the strict wire semantics of the versioned API: the body is scanned
// token by token with the keys array consumed element-wise, so request
// memory stays bounded — batches beyond MaxQueryKeys are rejected
// mid-stream, and duplicate or unknown fields are rejected rather than
// buffered. Every tier serving the route (ecmserver at a site and at a
// coordinator) validates through this one parser. A keys element spelled as
// EncodeQuery writes it is read in one pass (canonicalKey); any other goes
// through the scanner's item, so every rejection keeps its error text.
func ParseQueryBody(body io.Reader) (core.QueryBatch, error) {
	var q core.QueryBatch
	s := NewScanner(body)
	defer s.Release()
	if s.want('{') != nil {
		return q, fmt.Errorf("bad query body: want a JSON object")
	}
	const (
		fKeys = 1 << iota
		fRange
		fTotal
		fSelfJoin
	)
	var seen int
	for first := true; ; first = false {
		name, ok, err := s.member(first)
		if err != nil {
			return q, fmt.Errorf("bad query body: %v", err)
		}
		if !ok {
			return q, nil
		}
		var f int
		var unknown string // the name, copied out before the scanner reads on
		switch string(name) {
		case "keys":
			f = fKeys
		case "range":
			f = fRange
		case "total":
			f = fTotal
		case "selfJoin":
			f = fSelfJoin
		default:
			unknown = string(name)
		}
		if seen&f != 0 {
			// Rejecting duplicates keeps the parse strict (last-wins would
			// mask client bugs) and stops repeated keys arrays from evading
			// the per-query cap.
			return q, fmt.Errorf("duplicate query field %q", name)
		}
		seen |= f
		if err := s.want(':'); err != nil {
			return q, fmt.Errorf("bad query body: %v", err)
		}
		switch f {
		case fKeys:
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
				// As in NextEvent: the one spelling EncodeQuery writes in one
				// pass, any other through item.
				if s.end-s.pos < maxCanonicalKey {
					s.refill(s.pos)
				}
				key, m := canonicalKey(s.buf[s.pos:s.end])
				if m > 0 {
					s.pos += m
					if q.Keys == nil {
						// Size the batch once, from the bytes already
						// buffered, taking the keys still to come to be
						// spelled like this one; append grows past a short
						// guess. No key, no slice: "keys":[] stays nil.
						q.Keys = make([]uint64, 0, min(MaxQueryKeys, 1+(s.end-s.pos)/(m+1)))
					}
				} else if key, _, _, err = s.item(fieldIKey); err != nil {
					return q, fmt.Errorf("key %d: %v", len(q.Keys), err)
				}
				q.Keys = append(q.Keys, key)
			}
		case fRange:
			if err := s.uint(&q.Range); err != nil {
				return q, fmt.Errorf("bad range: %v", err)
			}
		case fTotal:
			if err := s.boolean(&q.Total); err != nil {
				return q, fmt.Errorf("bad total: %v", err)
			}
		case fSelfJoin:
			if err := s.boolean(&q.SelfJoin); err != nil {
				return q, fmt.Errorf("bad selfJoin: %v", err)
			}
		default:
			return q, fmt.Errorf("unknown query field %q", unknown)
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

// WriteSnapshot ships one snapshot payload (full or delta) with the
// protocol headers and an exact Content-Length, as identity bytes whatever
// the request's Accept-Encoding offers.
func WriteSnapshot(w http.ResponseWriter, payload []byte, m SnapshotMeta) {
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
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	w.Write(payload)
}

// SnapshotReply is one fetched snapshot: the payload and the protocol
// headers.
type SnapshotReply struct {
	Payload []byte
	Now     uint64
	Count   uint64
	Cursor  string
	Kind    string
}

// FetchDelta is the one HTTP pull of the delta-snapshot protocol: GET
// base/v1/snapshot?since=<since> through FetchSnapshot. A delta-speaking
// server answers with an incremental payload (or a full baseline when it
// does not recognize the cursor) plus X-Ecm-Cursor/X-Ecm-Delta headers. A
// reply whose cursor is missing or unparsable is taken as full with a zero
// cursor, so the puller keeps asking for full: a full payload still
// applies, a delta one fails the receiver's Apply and re-baselines.
func FetchDelta(hc *http.Client, base, token string, since core.Cursor) (payload []byte, cur core.Cursor, full bool, err error) {
	rep, err := FetchSnapshot(hc, base+"/v1/snapshot?since="+url.QueryEscape(since.String()), token)
	if err != nil {
		return nil, core.Cursor{}, false, err
	}
	if cur, err = core.ParseCursor(rep.Cursor); err != nil {
		cur = core.Cursor{}
	}
	return rep.Payload, cur, rep.Kind != KindDelta || cur.IsZero(), nil
}

// FetchSnapshot GETs a snapshot URL. A non-empty token is sent as a bearer
// credential. Any reply but 200 is an error naming the status.
func FetchSnapshot(hc *http.Client, url, token string) (SnapshotReply, error) {
	var rep SnapshotReply
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return rep, err
	}
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
	if rep.Payload, err = io.ReadAll(io.LimitReader(resp.Body, MaxSnapshotBytes)); err != nil {
		return rep, fmt.Errorf("reading snapshot body: %w", err)
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
