package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"ecmsketch/internal/core"
	"ecmsketch/internal/hashing"
)

// parseQueryBodyJSON is ParseQueryBody as it stood on encoding/json — one
// Token per outer field, one reflective Decode per key — kept as the oracle
// the scanner-based parser is compared with.
func parseQueryBodyJSON(body io.Reader) (core.QueryBatch, error) {
	type queryKey struct {
		Key  string `json:"key,omitempty"`
		IKey string `json:"ikey,omitempty"`
	}
	var q core.QueryBatch
	dec := json.NewDecoder(body)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return q, fmt.Errorf("bad query body: want a JSON object")
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return q, fmt.Errorf("bad query body: %v", err)
		}
		field, _ := tok.(string)
		if seen[field] {
			return q, fmt.Errorf("duplicate query field %q", field)
		}
		seen[field] = true
		switch field {
		case "keys":
			if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
				return q, fmt.Errorf("bad query body: keys must be an array")
			}
			for dec.More() {
				if len(q.Keys) == MaxQueryKeys {
					return q, fmt.Errorf("too many keys: at most %d per query", MaxQueryKeys)
				}
				var wk queryKey
				if err := dec.Decode(&wk); err != nil {
					return q, fmt.Errorf("key %d: %v", len(q.Keys), err)
				}
				switch {
				case wk.Key != "":
					q.Keys = append(q.Keys, hashing.KeyString(wk.Key))
				case wk.IKey != "":
					v, err := strconv.ParseUint(wk.IKey, 10, 64)
					if err != nil {
						return q, fmt.Errorf("key %d: bad ikey: %v", len(q.Keys), err)
					}
					q.Keys = append(q.Keys, v)
				default:
					return q, fmt.Errorf("key %d: missing key or ikey", len(q.Keys))
				}
			}
			if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
				return q, fmt.Errorf("bad query body: unterminated keys array")
			}
		case "range":
			if err := dec.Decode(&q.Range); err != nil {
				return q, fmt.Errorf("bad range: %v", err)
			}
		case "total":
			if err := dec.Decode(&q.Total); err != nil {
				return q, fmt.Errorf("bad total: %v", err)
			}
		case "selfJoin":
			if err := dec.Decode(&q.SelfJoin); err != nil {
				return q, fmt.Errorf("bad selfJoin: %v", err)
			}
		default:
			return q, fmt.Errorf("unknown query field %q", field)
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return q, fmt.Errorf("bad query body: unterminated object")
	}
	return q, nil
}

var queryCorpus = []string{
	`{"keys":[{"key":"/home"},{"ikey":"17446744073709551615"}],"range":60000,"total":true,"selfJoin":true}`,
	`{"keys":[{"key":"/home"},{"key":"/cart"},{"ikey":"42"}],"range":10000,"total":true,"selfJoin":true}`,
	`{"total":true}`, `{}`, ` { } `, `{"keys":[]}`, `{"keys":[ ]}`, `{"keys":null}`, `{"keys":[null]}`, `{"keys":[1]}`,
	`not json`, ``, `[]`, `{`, `{"keys":[{}]}`, `{"keys":[{"ikey":"zzz"}]}`, `{"keys":{"key":"/home"}}`,
	`{"range":"soon"}`, `{"bogus":1}`, `{"keys":[{"key":"/home"}]`, `{"keys":[{"ikey":"1"}],"keys":[{"ikey":"2"}]}`,
	`{"range":100,"range":200}`, `{"range":null}`, `{"range":1.0}`, `{"range":1e3}`, `{"range":-1}`, `{"range":01}`, `{"range":0}`,
	`{"range":18446744073709551615}`, `{"range":18446744073709551616}`, `{"total":null,"selfJoin":false}`, `{"total":1}`,
	`{"total":"true"}`, `{"total":tru}`, `{"total":truely}`, `{"Keys":[]}`, `{"Total":true}`, `{"selfjoin":true}`, `{"keys":[{"ikey":"3"}]}`,
	`{"keys":[{"Key":"a"},{"IKEY":"7"}]}`, `{"keys":[{"key":"a","ikey":"zzz"}]}`, `{"keys":[{"key":"","ikey":"9"}]}`,
	`{"keys":[{"key":"a","t":"any","n":{"x":[1,2]}}]}`, `{"keys":[{"key":"a","key":""}]}`, `{"keys":[{"key":"a","key":null}]}`,
	`{"keys":[{"key":"aA\"\\"}]}`, "{\"keys\":[{\"key\":\"\xff\xfe\"}]}", `{"keys":[{"ikey":"18446744073709551616"}]}`,
	`{"keys":[{"ikey":"1"},]}`, `{"keys":[,{"ikey":"1"}]}`, `{"keys":[{"ikey":"1"} {"ikey":"2"}]}`, `{"keys":[{"ikey":"1"}],}`,
	`{,"total":true}`, `{"total":true "range":1}`, `{"total" true}`, `{total:true}`, `{"total":true}trailing`, `{"total":true}}`,
	"\n{ \"keys\" : [ { \"ikey\" : \"5\" } , { \"key\" : \"x\" } ] ,\t\"range\" : 7 }\r\n", `{"":1}`, `{"keys":[{"":1,"key":"a"}]}`,
}

// sameQuery checks the scanner-based parser against the oracle on one body,
// read through rd: accept/reject and the parsed batch agree; only error
// wording may differ.
func sameQuery(t *testing.T, body []byte, rd func([]byte) io.Reader) (core.QueryBatch, error) {
	t.Helper()
	got, gotErr := ParseQueryBody(rd(body))
	want, wantErr := parseQueryBodyJSON(bytes.NewReader(body))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: scanner err %v, encoding/json err %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: scanner %+v, encoding/json %+v", body, got, want)
	}
	return got, gotErr
}

func whole(b []byte) io.Reader  { return bytes.NewReader(b) }
func byByte(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }

func TestParseQueryBodyMatchesOracle(t *testing.T) {
	for _, body := range queryCorpus {
		sameQuery(t, []byte(body), whole)
		sameQuery(t, []byte(body), byByte)
	}
	// The cap bites mid-stream, on the element past it.
	var b strings.Builder
	b.WriteString(`{"keys":[`)
	for i := 0; i < MaxQueryKeys; i++ {
		fmt.Fprintf(&b, `{"ikey":"%d"},`, i)
	}
	atCap := strings.TrimSuffix(b.String(), ",")
	if q, err := sameQuery(t, []byte(atCap+`]}`), whole); err != nil || len(q.Keys) != MaxQueryKeys {
		t.Fatalf("%d keys: %d parsed, err %v", MaxQueryKeys, len(q.Keys), err)
	}
	if _, err := sameQuery(t, []byte(b.String()+`{"ikey":"1"}]}`), whole); err == nil || !strings.Contains(err.Error(), "too many keys") {
		t.Fatalf("%d keys: err %v, want too many keys", MaxQueryKeys+1, err)
	}
}

// FuzzParseQueryBody: the parser never panics, agrees with the encoding/json
// oracle below the scan bounds, and a body it accepts re-encodes — in the
// client's spelling — to one that parses to the same batch.
func FuzzParseQueryBody(f *testing.F) {
	for _, body := range queryCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxStringToken || bytes.Count(body, []byte("["))+bytes.Count(body, []byte("{")) > MaxSkipDepth {
			ParseQueryBody(bytes.NewReader(body)) //nolint:errcheck // past a bound: must not panic, may differ
			return
		}
		sameQuery(t, body, byByte)
		q, err := sameQuery(t, body, whole)
		if err != nil {
			return
		}
		var re bytes.Buffer
		re.WriteString(`{"keys":[`)
		for i, k := range q.Keys {
			if i > 0 {
				re.WriteByte(',')
			}
			fmt.Fprintf(&re, `{"ikey":"%d"}`, k)
		}
		fmt.Fprintf(&re, `],"range":%d,"total":%t,"selfJoin":%t}`, q.Range, q.Total, q.SelfJoin)
		back, err := ParseQueryBody(&re)
		if err != nil || !reflect.DeepEqual(back.Keys, q.Keys) || back.Range != q.Range || back.Total != q.Total || back.SelfJoin != q.SelfJoin {
			t.Fatalf("body %q: %+v re-encoded and parsed to %+v, err %v", body, q, back, err)
		}
	})
}

// TestEncodeEventsRoundTrip: what EncodeEvents writes, NextEvent reads back
// (counts up to MaxEventCount — past it the reader refuses, see
// TestNextEventCountCap), and the body fills exactly the capacity it was
// presized to at any count.
func TestEncodeEventsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edge := []uint64{0, 1, 9, 10, 99, 100, 9999, 10000, 99999, 1<<53 + 1, 9999999999999999999, 10000000000000000000, math.MaxUint64}
	evs := make([]core.Event, 0, 600)
	for _, k := range edge {
		for _, n := range edge {
			evs = append(evs, core.Event{Key: k, Tick: n | 1, N: n})
		}
	}
	for len(evs) < cap(evs) {
		evs = append(evs, core.Event{Key: rng.Uint64(), Tick: 1 + rng.Uint64()>>uint(rng.Intn(64)), N: rng.Uint64() >> uint(rng.Intn(64))})
	}
	for _, v := range pow10[1:] { // every power of ten, and either side
		edge = append(edge, v-1, v, v+1)
	}
	for _, v := range edge {
		if got, want := decLen(v), len(strconv.FormatUint(v, 10)); got != want {
			t.Fatalf("decLen(%d) = %d, want %d", v, got, want)
		}
	}
	if body := EncodeEvents(evs); cap(body) != len(body) {
		t.Fatalf("len %d cap %d: want an exact presize", len(body), cap(body))
	}
	for i := range evs {
		evs[i].N %= MaxEventCount + 1
	}
	body := EncodeEvents(evs)
	if cap(body) != len(body) {
		t.Fatalf("len %d cap %d: want an exact presize", len(body), cap(body))
	}
	if got := EncodeEvents(nil); string(got) != "[]" {
		t.Fatalf("no events encode to %q", got)
	}
	s := NewScanner(bytes.NewReader(body))
	defer s.Release()
	for i, want := range evs {
		if got, ok, err := s.NextEvent(); err != nil || !ok || got != want {
			t.Fatalf("event %d: read back %+v ok=%v err=%v, want %+v", i, got, ok, err, want)
		}
	}
	if _, ok, err := s.NextEvent(); ok || err != nil {
		t.Fatalf("past the last event: ok=%v err=%v", ok, err)
	}
}

// TestNextEventCountCap: an element may claim MaxEventCount arrivals and not
// one more; the refusal names the element and leaves earlier ones readable.
func TestNextEventCountCap(t *testing.T) {
	body := EncodeEvents([]core.Event{{Key: 1, Tick: 1, N: MaxEventCount}, {Key: 2, Tick: 2, N: MaxEventCount + 1}})
	s := NewScanner(bytes.NewReader(body))
	defer s.Release()
	if ev, ok, err := s.NextEvent(); err != nil || !ok || ev.N != MaxEventCount {
		t.Fatalf("element at the cap: %+v ok=%v err=%v", ev, ok, err)
	}
	if _, ok, err := s.NextEvent(); ok || err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("element over the cap: ok=%v err=%v, want an error naming event 1", ok, err)
	}
}

// itemEvent reads the one element at the front of b the general way — item,
// then NextEvent's t ≠ 0 — and returns it with the bytes it took.
func itemEvent(b []byte) (core.Event, int, error) {
	s := NewScanner(bytes.NewReader(b))
	defer s.Release()
	key, t, n, err := s.item(fieldN)
	if err == nil && t == 0 {
		err = errors.New("missing or zero t")
	}
	return core.Event{Key: key, Tick: t, N: n}, s.pos, err
}

// TestCanonicalEventAgreesWithItem: on EncodeEvents' elements and on every
// one-byte truncation, deletion and substitution of them, canonicalEvent
// either declines or decodes exactly the event and length item does — it
// never accepts what item rejects.
func TestCanonicalEventAgreesWithItem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var accepted, declined int
	check := func(b []byte) {
		ev, m := canonicalEvent(b)
		if m == 0 {
			declined++
			return
		}
		accepted++
		want, wantM, err := itemEvent(b)
		if err != nil || ev != want || m != wantM {
			t.Fatalf("%q: canonical %+v in %d bytes, item %+v in %d bytes, err %v", b, ev, m, want, wantM, err)
		}
	}
	for i := 0; i < 40; i++ {
		ev := core.Event{Key: rng.Uint64() >> uint(rng.Intn(64)), Tick: 1 + rng.Uint64()>>uint(rng.Intn(64))}
		switch i % 3 {
		case 1:
			ev.N = uint64(rng.Intn(MaxEventCount))
		case 2: // at the cap, and either side
			ev.N = uint64(MaxEventCount - 1 + rng.Intn(3))
		}
		body := EncodeEvents([]core.Event{ev})
		elem := body[1 : len(body)-1]
		if got, m := canonicalEvent(body[1:]); (m == 0) != (ev.N > MaxEventCount) || (m > 0 && got != ev) {
			t.Fatalf("%q: canonical %+v in %d bytes, want %+v", elem, got, m, ev)
		}
		for cut := 0; cut <= len(elem); cut++ {
			check(elem[:cut])
			check(append(append([]byte{}, elem[:cut]...), ']'))
		}
		for at := range elem {
			del := append(append([]byte{}, elem[:at]...), elem[at+1:]...)
			check(del)
			check(append(del, ']'))
			sub := append(append([]byte{}, elem...), ']')
			for c := 0; c < 256; c++ {
				sub[at] = byte(c)
				check(sub)
			}
		}
	}
	if accepted == 0 || declined == 0 {
		t.Fatalf("accepted %d, declined %d: want both paths taken", accepted, declined)
	}
}

func BenchmarkEncodeEvents(b *testing.B) {
	evs := benchEvents()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeEvents(evs)
	}
}

// BenchmarkNextEvent is the scanner alone on what BenchmarkEncodeEvents
// writes: the parse layer of /v1/events, without HTTP or the engine.
func BenchmarkNextEvent(b *testing.B) {
	body := EncodeEvents(benchEvents())
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		s := NewScanner(rd)
		for {
			_, ok, err := s.NextEvent()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		s.Release()
	}
}

// benchEvents is a 512-event request of random ikeys, eight to a tick.
func benchEvents() []core.Event {
	rng := rand.New(rand.NewSource(1))
	evs := make([]core.Event, 512)
	for i := range evs {
		evs[i] = core.Event{Key: rng.Uint64(), Tick: uint64(1<<17 + i/8)}
	}
	return evs
}

func BenchmarkParseQueryBody(b *testing.B) {
	var body bytes.Buffer
	body.WriteString(`{"keys":[`)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"ikey":"%d"}`, rng.Uint64())
	}
	body.WriteString(`],"total":true}`)
	rd := bytes.NewReader(body.Bytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body.Bytes())
		if _, err := ParseQueryBody(rd); err != nil {
			b.Fatal(err)
		}
	}
}
