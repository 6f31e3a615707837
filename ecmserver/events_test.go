package ecmserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"ecmsketch"
	"ecmsketch/internal/wire"
)

// WireEvent is the JSON form of one batched arrival on POST /v1/events as
// encoding/json sees it. It left the production package with the reflective
// decoder; here it is the differential oracle the scanner is fuzzed against.
type WireEvent struct {
	Key  string `json:"key,omitempty"`
	IKey string `json:"ikey,omitempty"`
	T    uint64 `json:"t"`
	N    uint64 `json:"n,omitempty"`
}

// decodeEvents runs a /v1/events decode loop the way handleEvents does —
// flush every ingestFlushEvery, count only flushed chunks on failure — over
// next, and returns the events flushed, the accepted count the reply would
// carry, and the error that stopped it.
func decodeEvents(next func() (ecmsketch.Event, bool, error)) (flushed []ecmsketch.Event, accepted int, err error) {
	var chunk []ecmsketch.Event
	for {
		ev, ok, err := next()
		if err != nil {
			return flushed, len(flushed), err
		}
		if !ok {
			flushed = append(flushed, chunk...)
			return flushed, len(flushed), nil
		}
		if chunk = append(chunk, ev); len(chunk) == ingestFlushEvery {
			flushed = append(flushed, chunk...)
			chunk = chunk[:0]
		}
	}
}

// oracleNext is the per-element encoding/json decoder handleEvents ran
// before the scanner replaced it, as an iterator.
func oracleNext(body io.Reader) func() (ecmsketch.Event, bool, error) {
	dec := json.NewDecoder(body)
	i, opened := 0, false
	return func() (ecmsketch.Event, bool, error) {
		var zero ecmsketch.Event
		if !opened {
			if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
				return zero, false, errors.New("bad events body: want a JSON array")
			}
			opened = true
		}
		if !dec.More() {
			if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
				return zero, false, errors.New("bad events body: unterminated array")
			}
			return zero, false, nil
		}
		var ev WireEvent
		if err := dec.Decode(&ev); err != nil {
			return zero, false, fmt.Errorf("event %d: %v", i, err)
		}
		var key uint64
		switch {
		case ev.Key != "":
			key = ecmsketch.KeyString(ev.Key)
		case ev.IKey != "":
			v, err := strconv.ParseUint(ev.IKey, 10, 64)
			if err != nil {
				return zero, false, fmt.Errorf("event %d: bad ikey: %v", i, err)
			}
			key = v
		default:
			return zero, false, fmt.Errorf("event %d: missing key or ikey", i)
		}
		if ev.T == 0 {
			return zero, false, fmt.Errorf("event %d: missing or zero t", i)
		}
		if ev.N > wire.MaxEventCount {
			return zero, false, fmt.Errorf("event %d: n over wire.MaxEventCount", i)
		}
		i++
		return ecmsketch.Event{Key: key, Tick: ev.T, N: ev.N}, true, nil
	}
}

func scanEvents(body io.Reader) ([]ecmsketch.Event, int, error) {
	sc := wire.NewScanner(body)
	defer sc.Release()
	return decodeEvents(sc.NextEvent)
}

// eventsCorpus is the seed corpus of FuzzEventsBody and the table of
// TestEventsScannerMatchesOracle: every spelling the issue of the scanner
// rewrite called out, accepted or not.
var eventsCorpus = []string{
	`[{"key":"/home","t":12345,"n":2}, {"ikey":"17446744073709551615","t":12346}]`,
	`[{"key":"/a","t":2,"n":3}]`,
	`[{"key":"/home","t":1},{"key":"/home","t":2,"n":4},{"ikey":"42","t":3}]`,
	`[]`, ` [ ] `, `[null]`, `[1]`, `[[]]`, `["x"]`, `[{}]`, `[{},]`, `[,]`, `[{"t":1,"key":"a"},]`,
	``, ` `, `[`, `]`, `{`, `[}`, `not json`, `{"key":"a","t":1}`, `null`,
	`[{"key":"a","key":"","t":1}]`, `[{"key":"a","key":null,"t":1}]`, `[{"key":"","key":"a","t":1}]`,
	`[{"key":"a","ikey":"7","t":1}]`, `[{"ikey":"7","key":"a","t":1}]`, `[{"key":"a","ikey":"zzz","t":1}]`,
	`[{"key":"","ikey":"7","t":1}]`, `[{"ikey":"zzz","ikey":"5","t":1}]`, `[{"ikey":"5","ikey":"zzz","t":1}]`,
	`[{"ikey":"5","ikey":"","t":1}]`, `[{"ikey":"","t":1}]`, `[{"ikey":null,"t":1}]`, `[{"ikey":7,"t":1}]`,
	`[{"Key":"a","T":1}]`, `[{"KEY":"a","t":1,"N":3}]`, `[{"IKey":"9","T":1}]`, `[{"Key":"a","t":1}]`,
	`[{"key":"A","t":1}]`, `[{"key":"a\"b","t":1}]`, `[{"key":"a\\","t":1}]`, `[{"key":"\\\"","t":1}]`,
	`[{"key":"a","t":1}]`, `[{"t":1,"key":"a"}]`, `[{"ke\\y":"a","t":1}]`, `[{"key":"\ud800","t":1}]`,
	`[{"key":"é","t":1}]`, "[{\"key\":\"\xe9\",\"t\":1}]", "[{\"key\":\"a\xff\xfeb\",\"t\":1}]",
	"[{\"key\":\"caf\xc3\xa9\",\"t\":1}]", "[{\"k\xffy\":\"a\",\"key\":\"b\",\"t\":1}]",
	"[{\"key\":\"a\x01b\",\"t\":1}]", "[{\"key\":\"a\nb\",\"t\":1}]", `[{"key":"a\qb","t":1}]`, `[{"key":"\u12","t":1}]`,
	`[{"ikey":"12","t":1}]`, `[{"ikey":"007","t":1}]`, `[{"ikey":"+7","t":1}]`, `[{"ikey":"-7","t":1}]`,
	`[{"ikey":"1_0","t":1}]`, `[{"ikey":" 7","t":1}]`, `[{"ikey":"0x10","t":1}]`,
	`[{"ikey":"18446744073709551615","t":1}]`, `[{"ikey":"18446744073709551616","t":1}]`,
	`[{"ikey":"99999999999999999999","t":1}]`, `[{"ikey":"000000000000000000000000000001","t":1}]`,
	`[{"key":"a","t":1.0}]`, `[{"key":"a","t":1e3}]`, `[{"key":"a","t":-1}]`, `[{"key":"a","t":01}]`,
	`[{"key":"a","t":"5"}]`, `[{"key":"a","t":0}]`, `[{"key":"a","t":00}]`, `[{"key":"a","t":null}]`,
	`[{"key":"a","t":5,"t":null}]`, `[{"key":"a","t":1,"t":2}]`, `[{"key":"a","t":2,"t":0}]`, `[{"key":"a","t":true}]`,
	`[{"key":"a","t":18446744073709551615}]`, `[{"key":"a","t":18446744073709551616}]`, `[{"key":"a","t":1x}]`,
	`[{"key":"a","t":1,"n":0}]`, `[{"key":"a","t":1,"n":null}]`, `[{"key":"a","t":1,"n":-0}]`, `[{"key":"a","t":1,"n":2.5}]`,
	`[{"key":"a","t":1,"n":18446744073709551615}]`, `[{"key":"a","t":1,"n":[1]}]`, `[{"key":{},"t":1}]`, `[{"key":5,"t":1}]`,
	"\t[\n{ \"key\" : \"a\" ,\r\n \"t\" : 1 } , { \"ikey\" : \"2\" , \"t\" : 2 }\n]\n",
	`[{"key":"a","t":1}]trailing`, `[{"key":"a","t":1}]]`, `[{"key":"a","t":1}] {"x":`, `[{"key":"a","t":1}`,
	`[{"key":"a","t":1} {"key":"b","t":2}]`, `[{"key":"a","t":1},,{"key":"b","t":2}]`, `[{"key":"a" "t":1}]`,
	`[{"key":"a","t":1,}]`, `[{,"key":"a","t":1}]`, `[{"key" "a","t":1}]`, `[{"key":"a","t"}]`, `[{key:"a","t":1}]`,
	`[{"key":"a","t":1,"x":{"y":[1,2,{"z":null}],"w":"s"},"tags":[true,false,null,-1.5e+3,0.1,"é"]}]`,
	`[{"key":"a","t":1,"x":tru}]`, `[{"key":"a","t":1,"x":nul}]`, `[{"key":"a","t":1,"x":-}]`, `[{"key":"a","t":1,"x":1.}]`,
	`[{"key":"a","t":1,"x":1e}]`, `[{"key":"a","t":1,"x":.5}]`, `[{"key":"a","t":1,"x":01}]`, `[{"key":"a","t":1,"x":+1}]`,
	`[{"key":"a","t":1,"x":-0}]`, `[{"key":"a","t":1,"x":0e0}]`, `[{"key":"a","t":1,"x":1E-2}]`, `[{"key":"a","t":1,"x":[1,]}]`,
	`[{"key":"a","t":1,"x":[}]`, `[{"key":"a","t":1,"x":{"a"}}]`, `[{"key":"a","t":1,"x":{"a":1,}}]`, `[{"key":"a","t":1,"x":"\x"}]`,
	`[{"key":"a","t":1,"x":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}]`,
	`[{"key":"a","t":1,"":1}]`, `[{"":"","key":"a","t":1}]`, `[{"key":"a","t":1},{"t":2}]`, `[{"key":"a","t":1},{"key":"b"}]`,
	// The canonical spelling EncodeEvents writes, at the decoder's boundaries.
	`[{"ikey":"18446744073709551615","t":1},{"ikey":"18446744073709551616","t":1}]`,
	`[{"ikey":"000000000000000000000000000042","t":1}]`, `[{"ikey":"0","t":1}]`, `[{"ikey":"","t":1}]`,
	`[{"ikey":"1","t":18446744073709551615,"n":1}]`, `[{"ikey":"1","t":18446744073709551616,"n":1}]`,
	`[{"ikey":"1","t":1,"n":18446744073709551615}]`, `[{"ikey":"1","t":1,"n":18446744073709551616}]`,
	`[{"ikey":"1","t":01}]`, `[{"ikey":"1","t":0}]`, `[{"ikey":"1","t":1,"n":0}]`, `[{"ikey":"1","t":1,"n":01}]`,
	`[{"ikey":"1","t":1,"n":1048576}]`, `[{"ikey":"1","t":1,"n":1048577}]`,
	`[{"ikey":"1","t":2} ,{"ikey":"3","t":4} ]`, "[{\"ikey\":\"1\",\"t\":2}\n,\t{\"ikey\":\"3\",\"t\":4,\"n\":5}\r]",
	`[{"ikey":"1","t":2,"x":1}]`, `[{"ikey":"1","t":2,"n":3,"x":1}]`, `[{"ikey":"1","t":2},"key"]`,
	`[{"ikey":"1","t":2,"key":"a"}]`, `[{"ikey":"1","key":"a","t":2}]`, `[{"ikey":"1\u0030","t":2}]`,
	`[{"ikey":"1","t":2,"n":3}{"ikey":"1","t":2}]`, `[{"ikey":"1","t":2.5}]`, `[{"ikey":"1","t":2e1}]`,
	`[{"ikey":"1","t":2}`, `[{"ikey":"1","t":2`, `[{"ikey":"1","t":2,"n":3`, `[{"ikey":"1","t":2,"n":}]`,
}

// assertSameDecode checks scanner and oracle agree on accept/reject, the
// decoded events and the accepted count; only error wording may differ. A
// body the scanner refuses under one of its two bounds is outside the
// contract, provided it really is past the bound.
func assertSameDecode(t *testing.T, body []byte, rd func([]byte) io.Reader) {
	t.Helper()
	got, gotN, gotErr := scanEvents(rd(body))
	if errors.Is(gotErr, wire.ErrStringTooLong) && len(body) > wire.MaxStringToken {
		return
	}
	if errors.Is(gotErr, wire.ErrTooDeep) && bytes.Count(body, []byte("["))+bytes.Count(body, []byte("{")) > wire.MaxSkipDepth {
		return
	}
	want, wantN, wantErr := decodeEvents(oracleNext(bytes.NewReader(body)))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: scanner err %v, encoding/json err %v", body, gotErr, wantErr)
	}
	if gotN != wantN || len(got) != len(want) {
		t.Fatalf("body %q: scanner accepted %d (%d events), encoding/json %d (%d events)", body, gotN, len(got), wantN, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("body %q: event %d: scanner %+v, encoding/json %+v", body, i, got[i], want[i])
		}
	}
}

func wholeReader(b []byte) io.Reader { return bytes.NewReader(b) }

func TestEventsScannerMatchesOracle(t *testing.T) {
	for _, body := range eventsCorpus {
		assertSameDecode(t, []byte(body), wholeReader)
	}
	// Chunk flushing: a failure past a full chunk reports the chunk.
	var b strings.Builder
	b.WriteString("[")
	for i := 0; i < ingestFlushEvery+3; i++ {
		fmt.Fprintf(&b, `{"ikey":"%d","t":%d},`, i*7919, i+1)
	}
	assertSameDecode(t, []byte(b.String()+`{"t":1}]`), wholeReader)
	assertSameDecode(t, []byte(b.String()+`{"key":"z","t":9}]`), wholeReader)
	if _, n, err := scanEvents(strings.NewReader(b.String() + `{"t":1}]`)); err == nil || n != ingestFlushEvery {
		t.Fatalf("failure past one full chunk: accepted %d, err %v; want %d and an error", n, err, ingestFlushEvery)
	}
}

// FuzzEventsBody: for any body below the scanner's two bounds, scanner and
// the encoding/json oracle decode the same events and report the same
// accepted count, delivered whole or a byte at a time.
func FuzzEventsBody(f *testing.F) {
	for _, body := range eventsCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertSameDecode(t, body, wholeReader)
		assertSameDecode(t, body, func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) })
	})
}

// TestEventsSplitReads: the refill path is where a streaming scanner breaks,
// so every corpus body must decode identically however the reader cuts it —
// a byte at a time, and split in two at every offset.
func TestEventsSplitReads(t *testing.T) {
	long := `[{"key":"` + strings.Repeat("k", 300) + `","t":7,"pad":"` + strings.Repeat(`éx`, 50) + `"},{"ikey":"18446744073709551615","t":18446744073709551615,"n":18446744073709551615}]`
	for _, body := range append([]string{long}, eventsCorpus...) {
		b := []byte(body)
		assertSameDecode(t, b, func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) })
		for cut := 0; cut <= len(b); cut++ {
			cut := cut
			assertSameDecode(t, b, func(b []byte) io.Reader {
				return io.MultiReader(bytes.NewReader(b[:cut]), bytes.NewReader(b[cut:]))
			})
		}
	}
}

// TestEventsBounds: one element cannot make the server buffer more than the
// scanner's fixed buffer — an oversized string or an over-deep unknown value
// is a 400 carrying the usual accepted count, at either side of a string
// exactly at the bound.
func TestEventsBounds(t *testing.T) {
	srv := testServer(t)
	post := func(body string) (int, map[string]any) { return doJSON(t, srv, "POST", "/v1/events", body) }
	atBound := strings.Repeat("k", wire.MaxStringToken)
	if code, out := post(`[{"key":"` + atBound + `","t":1}]`); code != http.StatusOK || out["accepted"].(float64) != 1 {
		t.Errorf("key of exactly MaxStringToken bytes: %d %v, want 200 accepted 1", code, out)
	}
	for name, body := range map[string]string{
		"key one past the bound": `[{"key":"` + atBound + `k","t":1}]`,
		"1 MiB key":              `[{"key":"a","t":1},{"key":"` + strings.Repeat("k", 1<<20) + `","t":1}]`,
		"1 MiB unknown string":   `[{"key":"a","t":1,"x":"` + strings.Repeat("k", 1<<20) + `"}]`,
		"1 MiB field name":       `[{"` + strings.Repeat("k", 1<<20) + `":1,"key":"a","t":1}]`,
		"20000-deep array":       `[{"key":"a","t":1,"x":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}]`,
		"20000-deep object":      `[{"key":"a","t":1,"x":` + strings.Repeat(`{"a":`, 20000) + `1` + strings.Repeat("}", 20000) + `}]`,
		"one past the depth":     `[{"key":"a","t":1,"x":` + strings.Repeat("[", wire.MaxSkipDepth+1) + strings.Repeat("]", wire.MaxSkipDepth+1) + `}]`,
	} {
		code, out := post(body)
		if code != http.StatusBadRequest || out["accepted"].(float64) != 0 {
			t.Errorf("%s: %d %v, want 400 with accepted 0", name, code, out)
		}
	}
	deepest := strings.Repeat("[", wire.MaxSkipDepth) + strings.Repeat("]", wire.MaxSkipDepth)
	if code, out := post(`[{"key":"a","t":1,"x":` + deepest + `}]`); code != http.StatusOK {
		t.Errorf("unknown value exactly MaxSkipDepth deep: %d %v, want 200", code, out)
	}
	// A 1 MiB run of digits, whitespace or skipped number is not a string
	// token: nothing is kept across refills, so these stream through.
	if code, out := post(`[` + strings.Repeat(" ", 1<<20) + `{"key":"a","t":1,"x":1` + strings.Repeat("0", 1<<20) + `}]`); code != http.StatusOK {
		t.Errorf("long whitespace and skipped number: %d %v, want 200", code, out)
	}
}

func ikeyBody(events int) []byte {
	rng := rand.New(rand.NewSource(int64(events)))
	evs := make([]ecmsketch.Event, events)
	for i := range evs {
		evs[i] = ecmsketch.Event{Key: rng.Uint64(), Tick: uint64(1 + i/8)}
	}
	return wire.EncodeEvents(evs)
}

// discardWriter is the cheapest http.ResponseWriter, so the allocation pin
// below counts the handler and not httptest.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// replayEvents returns a function that runs handleEvents over body afresh on
// each call, with nothing of httptest on the measured path.
func replayEvents(srv *Server, body []byte) func() {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/events", nil)
	req.Body = io.NopCloser(rd)
	w := discardWriter{h: http.Header{}}
	return func() {
		rd.Reset(body)
		srv.handleEvents(w, req)
	}
}

// TestEventsAllocsDoNotScale pins the point of the scanner: a request's
// allocations are a small constant, not a multiple of its events.
func TestEventsAllocsDoNotScale(t *testing.T) {
	srv := testServer(t)
	small := testing.AllocsPerRun(200, replayEvents(srv, ikeyBody(512)))
	large := testing.AllocsPerRun(200, replayEvents(srv, ikeyBody(ingestFlushEvery)))
	// Equal, but for the pooled buffers: sync.Pool sheds a quarter of its
	// Puts under the race detector, so a few are reallocated now and then.
	const poolSlack = 4
	if large > small+poolSlack || small > 16 {
		t.Fatalf("allocations per request: %v at 512 events, %v at %d; want equal and ≤ 16", small, large, ingestFlushEvery)
	}
}

func BenchmarkHandleEvents(b *testing.B) {
	srv, err := New(Config{Epsilon: 0.02, Delta: 0.01, WindowLength: 1 << 17, Seed: 1, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	body := ikeyBody(512)
	run := replayEvents(srv, body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestShardedAsyncHandlerWriters is the check behind pooling the handlers'
// event buffers: neither route's buffer may be read after ingestBatch
// returns, or the next request — which gets the same buffer straight back —
// would overwrite events an async stripe owner or the WAL had yet to take.
// One handler-driven writer alternating /v1/events and /v1/batch must leave
// a sync, an async and an async durable engine byte-equal to an engine fed
// the same events directly; four concurrent writers, TopK noting on (its
// reads settle async stripes at timing-dependent ticks, so no byte equality
// there), must lose no event. CI runs it under -race, which flags a retained
// slice outright.
func TestShardedAsyncHandlerWriters(t *testing.T) {
	params := ecmsketch.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 1 << 16, Seed: 9}
	const requests, perRequest = 12, ingestFlushEvery + 700 // two chunks a request
	rng := rand.New(rand.NewSource(11))
	bodies := make([][2]string, requests) // the same events as JSON and as lines
	var all []ecmsketch.Event
	for r := range bodies {
		evs := make([]ecmsketch.Event, perRequest)
		var lines strings.Builder
		for i := range evs {
			name := "k" + strconv.Itoa(rng.Intn(500))
			evs[i] = ecmsketch.Event{Key: ecmsketch.KeyString(name), Tick: uint64(1 + r*8 + i/1024), N: uint64(1 + rng.Intn(3))}
			fmt.Fprintf(&lines, "%s,%d,%d\n", name, evs[i].Tick, evs[i].N)
		}
		bodies[r] = [2]string{string(wire.EncodeEvents(evs)), lines.String()}
		all = append(all, evs...)
	}
	ref, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: params, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for len(all) > 0 { // the handlers' chunking: every ingestFlushEvery, then the request's tail
		n := min(ingestFlushEvery, (len(all)-1)%perRequest+1)
		ref.AddBatch(all[:n])
		all = all[n:]
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]ecmsketch.ShardedConfig{
		"sync":          {Params: params, Shards: 4},
		"async":         {Params: params, Shards: 4, Async: true},
		"async-durable": {Params: params, Shards: 4, Async: true, Durability: &ecmsketch.DurabilityConfig{}},
	} {
		for _, writers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-%d", name, writers), func(t *testing.T) {
				if cfg.Durability != nil {
					cfg.Durability = &ecmsketch.DurabilityConfig{Store: ecmsketch.NewMemStore()}
				}
				eng, err := ecmsketch.NewSharded(cfg)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewOver(Config{WindowLength: params.WindowLength, TopK: 3 * (writers / 4)}, eng, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for r := w; r < requests; r += writers {
							route, body := "/v1/events", bodies[r][0]
							if r%2 == 1 {
								route, body = "/v1/batch", bodies[r][1]
							}
							if code, out := doJSON(t, srv, "POST", route, body); code != http.StatusOK || out["accepted"].(float64) != perRequest {
								t.Errorf("request %d: %d %v", r, code, out)
							}
						}
					}(w)
				}
				wg.Wait()
				eng.Flush()
				got, err := eng.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if got.Count() != want.Count() {
					t.Errorf("count %d, want %d", got.Count(), want.Count())
				}
				if writers == 1 && !bytes.Equal(got.Marshal(), want.Marshal()) {
					t.Errorf("engine state differs from the same events fed directly")
				}
			})
		}
	}
}

// batchReference counts what /v1/batch must accept of body, the plain way:
// strings.Split on newlines, strings.Split on commas, strconv on the fields.
// mass is the arrivals the accepted records add up to (a zero count is a unit
// arrival), malformed reports whether any line was skipped, overCap whether
// the count stopped at a record claiming more than wire.MaxEventCount.
func batchReference(body string) (accepted int, mass uint64, malformed, overCap bool) {
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Split(line, ",")
		ok := len(fields) >= 2
		if ok {
			_, err := strconv.ParseUint(strings.TrimSpace(fields[1]), 10, 64)
			ok = err == nil
		}
		count := uint64(1)
		if ok && len(fields) >= 3 {
			var err error
			count, err = strconv.ParseUint(strings.TrimSpace(fields[2]), 10, 64)
			ok = err == nil
		}
		if !ok {
			malformed = true
			continue
		}
		if count > wire.MaxEventCount {
			return accepted, mass, malformed, true
		}
		accepted++
		mass += max(count, 1)
	}
	return accepted, mass, malformed, false
}

// FuzzBatchBody holds the /v1/batch line grammar to batchReference: the
// handler never panics, accepts exactly the lines the reference accepts,
// answers 200 with a first error exactly when one was skipped, and answers
// 400 exactly when a record claims more than wire.MaxEventCount arrivals
// (ingest costs one insert per unit of count, so an uncapped
// "k,1,18446744073709551615" would never return). Bodies stay under the
// scanner's 1 MiB line bound, which TestBatchOversizedLine covers.
func FuzzBatchBody(f *testing.F) {
	f.Add("# comment\n/home,1\n/home,2\n/about,3,5\n\ngarbage-line\n/home,notanumber\n/home,4")
	f.Add("a,1,2,3,4\r\n b , 7 , 9 \r\n,5\nc,\nd,1,\n")
	f.Add("k,18446744073709551615,4096\nk,18446744073709551616\nk,-1\nk,+1\nk,0x10\nk,1,18446744073709551616\n")
	f.Add("a,1,1048576\nb,2,18446744073709551615\nc,3\n")
	f.Add(strings.Repeat("x,1\n", ingestFlushEvery+1))
	f.Fuzz(func(t *testing.T, body string) {
		want, mass, malformed, overCap := batchReference(body)
		if len(body) >= 1<<20 || mass > wire.MaxEventCount {
			// The mass bound is a time budget, no longer a hang guard: one
			// record's worth of arrivals is ~30 ms of inserts, several times
			// that under coverage instrumentation, and the mutator can stack
			// records until an exec passes the ten seconds at which the go
			// fuzzer declares a worker hung.
			t.Skip()
		}
		srv, err := New(Config{Epsilon: 0.2, Delta: 0.2, WindowLength: 1000, Seed: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		code, out := doJSON(t, srv, "POST", "/v1/batch", body)
		if got := srv.Engine().Count(); out["accepted"] != float64(want) || got != mass {
			t.Fatalf("body %q: accepted %v with %d arrivals applied, want %d with %d", body, out["accepted"], got, want, mass)
		}
		if overCap {
			if _, reported := out["error"]; code != http.StatusBadRequest || !reported {
				t.Fatalf("body %q: status %d %v, want 400 and an error for the over-cap record", body, code, out)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("body %q: status %d, want 200", body, code)
		}
		if _, reported := out["firstError"]; reported != malformed {
			t.Fatalf("body %q: firstError reported %v, reference skipped a line %v", body, reported, malformed)
		}
	})
}
