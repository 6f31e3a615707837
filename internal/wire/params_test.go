package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"ecmsketch/internal/hashing"
	"ecmsketch/internal/wire"
)

func TestWantDirect(t *testing.T) {
	if !wire.WantDirect(httptest.NewRequest("GET", "/v1/query?direct=1", nil)) {
		t.Error("direct=1 not recognized")
	}
	for _, u := range []string{"/v1/query", "/v1/query?direct=0", "/v1/query?direct=true"} {
		if wire.WantDirect(httptest.NewRequest("GET", u, nil)) {
			t.Errorf("%s treated as direct", u)
		}
	}
}

// TestParseQueryParams pins the GET form of /v1/query: interleaved key= and
// ikey= parameters keep request order, range/total/selfJoin parse, and the
// key cap plus malformed inputs reject.
func TestParseQueryParams(t *testing.T) {
	r := httptest.NewRequest("GET",
		"/v1/query?ikey=42&key=%2Fhome&ikey=7&range=500&total=1&selfJoin=1", nil)
	q, err := wire.ParseQueryParams(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{42, hashing.KeyString("/home"), 7}
	if len(q.Keys) != 3 {
		t.Fatalf("keys = %v, want 3 entries", q.Keys)
	}
	for i := range want {
		if q.Keys[i] != want[i] {
			t.Errorf("key %d = %d, want %d (order must follow the query string)", i, q.Keys[i], want[i])
		}
	}
	if q.Range != 500 || !q.Total || !q.SelfJoin {
		t.Errorf("parsed batch = %+v", q)
	}

	if _, err := wire.ParseQueryParams(httptest.NewRequest("GET", "/v1/query?ikey=notanumber", nil)); err == nil {
		t.Error("bad ikey accepted")
	}
	if _, err := wire.ParseQueryParams(httptest.NewRequest("GET", "/v1/query?key=", nil)); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := wire.ParseQueryParams(httptest.NewRequest("GET", "/v1/query?range=-1", nil)); err == nil {
		t.Error("bad range accepted")
	}

	var sb strings.Builder
	sb.WriteString("/v1/query?")
	for i := 0; i <= wire.MaxQueryKeys; i++ {
		fmt.Fprintf(&sb, "ikey=%d&", i)
	}
	if _, err := wire.ParseQueryParams(httptest.NewRequest("GET", sb.String(), nil)); err == nil {
		t.Errorf("over-cap batch accepted (cap %d)", wire.MaxQueryKeys)
	}
}

// FuzzParseQueryParams holds the GET spelling of /v1/query to the POST one: a
// batch written as key=/ikey=/range=/total=/selfJoin= parameters decodes to
// the QueryBatch its JSON body decodes to, and both refuse it past
// MaxQueryKeys. spec is read as the key list — an odd byte starts an ikey of
// the next 8 bytes, an even one a string key of the next 1–16 — repeated reps
// times so the cap is in reach. raw is any query string at all: it may be
// refused but must not panic.
func FuzzParseQueryParams(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint64(0), false, true, "total=1")
	f.Add([]byte("\x01\x2a\x00\x00\x00\x00\x00\x00\x00\x00\x04/home"), uint16(1), uint64(500), true, true, "ikey=42&key=%2Fhome&range=500")
	f.Add([]byte("\x00\x00a\x01\xff\xff\xff\xff\xff\xff\xff\xff"), uint16(2049), uint64(1)<<63, false, false, "key=%zz&ikey=-1&&=&range=1e3")
	f.Fuzz(func(t *testing.T, spec []byte, reps uint16, rng uint64, total, selfJoin bool, raw string) {
		r := httptest.NewRequest("GET", "/v1/query", nil)
		r.URL.RawQuery = raw
		wire.ParseQueryParams(r) //nolint:errcheck // arbitrary input: must not panic

		type wireKey struct {
			Key  string `json:"key,omitempty"`
			IKey string `json:"ikey,omitempty"`
		}
		var one []wireKey
		for len(spec) > 0 {
			kind := spec[0]
			spec = spec[1:]
			if kind&1 == 1 {
				var v [8]byte
				spec = spec[copy(v[:], spec):]
				one = append(one, wireKey{IKey: strconv.FormatUint(binary.LittleEndian.Uint64(v[:]), 10)})
				continue
			}
			n := min(int(kind>>1)%16+1, len(spec))
			if s := string(spec[:n]); n > 0 && utf8.ValidString(s) { // JSON cannot carry other bytes unchanged
				one = append(one, wireKey{Key: s})
			}
			spec = spec[n:]
		}
		keys := []wireKey{} // marshals as [], not null
		for i := 0; i < int(reps) && len(keys)+len(one) <= wire.MaxQueryKeys+64; i++ {
			keys = append(keys, one...)
		}

		var get strings.Builder
		for _, k := range keys {
			if k.IKey != "" {
				get.WriteString("ikey=" + k.IKey + "&")
			} else {
				get.WriteString("key=" + url.QueryEscape(k.Key) + "&")
			}
		}
		fmt.Fprintf(&get, "range=%d", rng)
		if total {
			get.WriteString("&total=1")
		}
		if selfJoin {
			get.WriteString("&selfJoin=1")
		}
		r.URL.RawQuery = get.String()
		fromGet, getErr := wire.ParseQueryParams(r)

		body, err := json.Marshal(struct {
			Keys     []wireKey `json:"keys"`
			Range    uint64    `json:"range"`
			Total    bool      `json:"total"`
			SelfJoin bool      `json:"selfJoin"`
		}{keys, rng, total, selfJoin})
		if err != nil {
			t.Fatal(err)
		}
		fromPost, postErr := wire.ParseQueryBody(bytes.NewReader(body))

		if over := len(keys) > wire.MaxQueryKeys; (getErr != nil) != over || (postErr != nil) != over {
			t.Fatalf("%d keys: GET error %v, POST error %v, want both %v", len(keys), getErr, postErr, over)
		}
		if getErr == nil && (!slices.Equal(fromGet.Keys, fromPost.Keys) ||
			fromGet.Range != fromPost.Range || fromGet.Total != fromPost.Total || fromGet.SelfJoin != fromPost.SelfJoin) {
			t.Fatalf("GET %q decoded to %+v, POST %s to %+v", get.String(), fromGet, body, fromPost)
		}
	})
}
