package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"ecmsketch/internal/core"
)

// replyJSON is the /v1/query reply as json.Encoder wrote it before
// EncodeQueryReply: ecmserver.WireQueryResult, and the same shape with the
// ticks quoted under ?strings=1.
func replyJSON(res core.QueryResult, total, selfJoin, asStrings bool) ([]byte, error) {
	type numeric struct {
		Estimates []float64 `json:"estimates"`
		Total     *float64  `json:"total,omitempty"`
		SelfJoin  *float64  `json:"selfJoin,omitempty"`
		Now       uint64    `json:"now"`
		Range     uint64    `json:"range"`
	}
	type quoted struct {
		Estimates []float64 `json:"estimates"`
		Total     *float64  `json:"total,omitempty"`
		SelfJoin  *float64  `json:"selfJoin,omitempty"`
		Now       string    `json:"now"`
		Range     string    `json:"range"`
	}
	out := numeric{Estimates: res.Estimates, Now: res.Now, Range: res.Range}
	if out.Estimates == nil {
		out.Estimates = []float64{}
	}
	if total {
		out.Total = &res.Total
	}
	if selfJoin {
		out.SelfJoin = &res.SelfJoin
	}
	var v any = out
	if asStrings {
		v = quoted{out.Estimates, out.Total, out.SelfJoin, strconv.FormatUint(res.Now, 10), strconv.FormatUint(res.Range, 10)}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// sameReply reports whether a and b hold the same bits.
func sameReply(a, b core.QueryResult) bool {
	if len(a.Estimates) != len(b.Estimates) {
		return false
	}
	for i := range a.Estimates {
		if math.Float64bits(a.Estimates[i]) != math.Float64bits(b.Estimates[i]) {
			return false
		}
	}
	return math.Float64bits(a.Total) == math.Float64bits(b.Total) &&
		math.Float64bits(a.SelfJoin) == math.Float64bits(b.SelfJoin) && a.Now == b.Now && a.Range == b.Range
}

// replyEdges are the floats where encoding/json's spelling turns: ±0,
// subnormals, both sides of the 'f'/'e' switch at 1e-6 and 1e21, the
// two-digit exponents it trims, and the values it refuses.
var replyEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, math.SmallestNonzeroFloat64 * 3,
	1e-6, math.Nextafter(1e-6, 0), -math.Nextafter(1e-6, 0), 1e-7, 1.2345678901234567e-7, 9.999999999999999e-7,
	1e21, math.Nextafter(1e21, 0), -math.Nextafter(1e21, 0), 1e20, 123456789012345678, 1e100, -1e-100,
	0.1, 1.0000000000000002, 1.2345678901234567e-6, math.MaxFloat64, -math.MaxFloat64, 4096, 3.5, -2.5, 0.5, -0.5,
	1<<52 - 0.5, 1 << 52, 1<<53 + 2, 999999999999999.5, 1e15 + 0.5, 1e15, 0.25,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func float64Bytes(vs ...float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// FuzzQueryReplyCodec: over arbitrary float64 bit patterns and both reply
// shapes, EncodeQueryReply writes json.Encoder's bytes within maxQueryReply
// or declines exactly when a written value is not finite; decodeQueryReply
// reads the numeric reply back bit for bit, and whatever it accepts of a
// mutated body json.Unmarshal reads to the same bits.
func FuzzQueryReplyCodec(f *testing.F) {
	for i, v := range replyEdges {
		f.Add(float64Bytes(v, replyEdges[(i+7)%len(replyEdges)]), math.Float64bits(v), math.Float64bits(replyEdges[(i+3)%len(replyEdges)]),
			uint64(i), uint64(1)<<uint(i%64), uint8(i), uint16(i*5), byte("0-.e,}]\" x"[i%10]))
	}
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), uint64(0), uint8(3), uint16(0), byte('{'))
	f.Add(float64Bytes(1, 2, 3), math.Float64bits(6), math.Float64bits(14), uint64(math.MaxUint64), uint64(10000), uint8(3), uint16(40), byte('\n'))
	f.Fuzz(func(t *testing.T, raw []byte, totalBits, selfJoinBits, now, rng uint64, flags uint8, at uint16, to byte) {
		res := core.QueryResult{Total: math.Float64frombits(totalBits), SelfJoin: math.Float64frombits(selfJoinBits), Now: now, Range: rng}
		for i := 0; i+8 <= len(raw) && i < 8*MaxQueryKeys; i += 8 {
			res.Estimates = append(res.Estimates, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		total, selfJoin, asStrings := flags&1 != 0, flags&2 != 0, flags&4 != 0
		want, wantErr := replyJSON(res, total, selfJoin, asStrings)
		got, ok := EncodeQueryReply(res, total, selfJoin, asStrings)
		if !ok {
			if wantErr == nil {
				t.Fatalf("%+v: declined, encoding/json wrote %s", res, want)
			}
			return
		}
		if wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%+v (total %v selfJoin %v strings %v):\n got %s\nwant %s (err %v)", res, total, selfJoin, asStrings, got, want, wantErr)
		}
		if len(got) > maxQueryReply(len(res.Estimates)) {
			t.Fatalf("%d estimates: %d bytes past maxQueryReply %d", len(res.Estimates), len(got), maxQueryReply(len(res.Estimates)))
		}
		if !asStrings {
			back, ok := decodeQueryReply(got, len(res.Estimates))
			if !total {
				back.Total = res.Total
			}
			if !selfJoin {
				back.SelfJoin = res.SelfJoin
			}
			if !ok || !sameReply(back, res) {
				t.Fatalf("%s: decoded to %+v (ok %v), want %+v", got, back, ok, res)
			}
		}
		mut := append([]byte(nil), got...)
		switch i := int(at) % (len(mut) + 1); {
		case flags&8 != 0:
			mut = mut[:i] // truncated
		case i < len(mut):
			mut[i] = to
		default:
			mut = append(mut, to)
		}
		dec, ok := decodeQueryReply(mut, 0)
		if !ok {
			return
		}
		var out queryReply
		if err := json.Unmarshal(mut, &out); err != nil {
			t.Fatalf("%q: decoded to %+v, json.Unmarshal: %v", mut, dec, err)
		}
		if oracle := (core.QueryResult{Estimates: out.Estimates, Total: out.Total, SelfJoin: out.SelfJoin, Now: out.Now, Range: out.Range}); !sameReply(dec, oracle) {
			t.Fatalf("%q: decoded to %+v, json.Unmarshal to %+v", mut, dec, oracle)
		}
	})
}

// TestReadQueryReplyFallsBack: a reply in any spelling but the one
// EncodeQueryReply writes — whitespace, names in another case, unknown
// fields, null, bytes behind the object, a body past the read bound — reads
// as a json.Decoder reads it, errors included, and a reader handing out one
// byte at a time changes nothing.
func TestReadQueryReplyFallsBack(t *testing.T) {
	long := `{"estimates":[` + strings.Repeat("1,", MaxQueryKeys*20) + `1],"now":1,"range":2}`
	bodies := []string{
		`{"estimates":[1,2.5],"total":3,"selfJoin":4,"now":5,"range":6}` + "\n",
		`{"estimates":[],"now":0,"range":0}`,
		` {"estimates" : [1, 2], "now":5, "range":6}`,
		`{"Estimates":[1],"NOW":5,"Range":6,"selfjoin":7}`,
		`{"estimates":[1],"now":5,"range":6,"extra":{"x":[null]}}`,
		`{"estimates":null,"total":null,"now":5,"range":6}`,
		`{"estimates":[1],"now":5,"range":6}{"trailing":1}`,
		`{"estimates":[1],"now":5,"range":6} garbage`,
		`{"estimates":[1e400],"now":5,"range":6}`,
		`{"estimates":[1],"now":-5,"range":6}`,
		`{"estimates":[1],"now":"5","range":6}`,
		`{"estimates":[1],"now":05,"range":6}`,
		`{"estimates":[1],"now":5,"range":6`,
		`{"estimates":[01],"now":5,"range":6}`,
		`{"estimates":[1],"now":5,"range":6,"now":7}`,
		``, `null`, `[]`,
		long,
	}
	for _, body := range bodies {
		var out queryReply
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&out)
		want := core.QueryResult{Estimates: out.Estimates, Total: out.Total, SelfJoin: out.SelfJoin, Now: out.Now, Range: out.Range}
		for _, rd := range []io.Reader{strings.NewReader(body), iotest.OneByteReader(strings.NewReader(body))} {
			got, err := ReadQueryReply(rd, 2)
			if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%.80q: got %+v, %v; json.Decoder %+v, %v", body, got, err, want, wantErr)
			}
		}
	}
}

// TestRespondRefusesNonFinite: a value encoding/json cannot encode is a 500
// in the error shape, not a 200 with an empty body.
func TestRespondRefusesNonFinite(t *testing.T) {
	w := httptest.NewRecorder()
	Respond(w, map[string]float64{"estimate": math.NaN()})
	if w.Code != http.StatusInternalServerError || w.Body.String() != `{"error":"json: unsupported value: NaN"}`+"\n" ||
		w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("code %d, body %q, Content-Type %q", w.Code, w.Body, w.Header().Get("Content-Type"))
	}
	w = httptest.NewRecorder()
	Respond(w, map[string]float64{"estimate": 1.5})
	if w.Code != http.StatusOK || w.Body.String() != `{"estimate":1.5}`+"\n" {
		t.Fatalf("code %d, body %q", w.Code, w.Body)
	}
}

func BenchmarkEncodeQueryReply(b *testing.B) {
	res := benchReply()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := EncodeQueryReply(res, false, false, false); !ok {
			b.Fatal("declined")
		}
	}
}

func BenchmarkReadQueryReply(b *testing.B) {
	body, _ := EncodeQueryReply(benchReply(), false, false, false)
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, err := ReadQueryReply(rd, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeQuery(b *testing.B) {
	q := core.QueryBatch{Keys: make([]uint64, 64)}
	for i, ev := range benchEvents()[:64] {
		q.Keys[i] = ev.Key
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeQuery(q)
	}
}

// benchReply is a 64-key merged read's reply: EH estimates, multiples of ½
// from a few hundred to a few thousand, as a loaded site answers them.
func benchReply() core.QueryResult {
	res := core.QueryResult{Estimates: make([]float64, 64), Now: 1 << 20, Range: 1 << 16}
	for i := range res.Estimates {
		res.Estimates[i] = float64(97*(i+3)*(i+1)%5000) + float64(i%2)/2
	}
	return res
}
