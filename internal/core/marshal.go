package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ecmsketch/internal/window"
)

const (
	wireECM byte = 0xEC
	// wireSparse is the elided-cell sketch encoding (MarshalSparse): the
	// same header as wireECM, then the indices of cells whose encoding a
	// fresh sketch advanced to the header clock reproduces exactly, then the
	// remaining cells in config-elided bare form. Multipart baselines use it
	// per stripe, where most cells are untouched. EH and DW sketches only.
	wireSparse byte = 0xF0
)

func appendF64(dst []byte, v float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(dst, tmp[:]...)
}

// appendMarshalHeader appends the fixed sketch header shared by the dense
// (wireECM) and sparse (wireSparse) encodings: every field between the tag
// byte and the cell payloads.
func (s *Sketch) appendMarshalHeader(dst []byte) []byte {
	dst = appendF64(dst, s.params.Epsilon)
	dst = appendF64(dst, s.params.Delta)
	dst = append(dst, byte(s.params.Query), byte(s.params.Algorithm), byte(s.params.Model))
	dst = binary.AppendUvarint(dst, s.params.WindowLength)
	dst = binary.AppendUvarint(dst, s.params.UpperBound)
	dst = binary.AppendUvarint(dst, s.params.Seed)
	dst = binary.AppendUvarint(dst, uint64(s.w))
	dst = binary.AppendUvarint(dst, uint64(s.d))
	dst = appendF64(dst, s.split.EpsCM)
	dst = appendF64(dst, s.split.EpsSW)
	dst = binary.AppendUvarint(dst, s.now)
	dst = binary.AppendUvarint(dst, s.count)
	dst = binary.AppendUvarint(dst, s.salt)
	dst = binary.AppendUvarint(dst, s.seq)
	return dst
}

// Marshal encodes the sketch: configuration header followed by each
// counter's own encoding, length-prefixed. The encoded size is what the
// distributed experiments charge as network volume when a site ships its
// local sketch to an aggregator.
func (s *Sketch) Marshal() []byte {
	dst := []byte{wireECM}
	dst = s.appendMarshalHeader(dst)
	// Encode each cell straight out of the arena through a call-local buffer
	// — the arena itself is only read, so frozen sketches (the sharded
	// engine's published views) marshal concurrently without coordination.
	var cell []byte
	for i := 0; i < s.d*s.w; i++ {
		cell = s.bank.AppendMarshalCell(cell[:0], i)
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

// marshalHeader is the decoded fixed sketch header shared by the dense and
// sparse encodings.
type marshalHeader struct {
	p                Params
	now              Tick
	count, salt, seq uint64
}

// reader walks one varint-packed encoding. The first read past the end
// latches err (naming the encoding as what) and every later read returns
// zero, so a run of fields decodes without a check per field; callers check
// err before a decoded value steers control flow.
type reader struct {
	b    []byte
	off  int
	what string
	err  error
}

func (r *reader) truncated() {
	if r.err == nil {
		r.err = fmt.Errorf("core: truncated %s", r.what)
	}
}

// take consumes n bytes.
func (r *reader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.truncated()
		return nil
	}
	c := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return c
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.truncated()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte1() byte {
	if c := r.take(1); c != nil {
		return c[0]
	}
	return 0
}

func (r *reader) f64() float64 {
	if c := r.take(8); c != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(c))
	}
	return 0
}

// chunk consumes one length-prefixed run of bytes.
func (r *reader) chunk() []byte { return r.take(r.uvarint()) }

// index consumes one delta-encoded index of a strictly increasing list over
// [0, n): prev is the previous index, first whether this is the first. An
// index out of range latches err like a truncation does. The increment is
// bounded before converting — a huge varint would wrap int and sneak a
// negative index past the range check.
func (r *reader) index(prev, n int, first bool) int {
	d := r.uvarint()
	if r.err != nil {
		return 0
	}
	if d > uint64(n) || prev+int(d) >= n || (!first && d == 0) {
		r.err = fmt.Errorf("core: %s index out of range", r.what)
		return 0
	}
	return prev + int(d)
}

// readMarshalHeader decodes the header appendMarshalHeader wrote (r stands
// just past the tag byte), leaving r at the first cell payload.
func readMarshalHeader(r *reader) (marshalHeader, error) {
	var h marshalHeader
	var split Split
	h.p.Epsilon, h.p.Delta = r.f64(), r.f64()
	h.p.Query = QueryKind(r.byte1())
	h.p.Algorithm = window.Algorithm(r.byte1())
	h.p.Model = window.Model(r.byte1())
	h.p.WindowLength, h.p.UpperBound, h.p.Seed = r.uvarint(), r.uvarint(), r.uvarint()
	wu, du := r.uvarint(), r.uvarint()
	split.EpsCM, split.EpsSW = r.f64(), r.f64()
	h.p.Split = &split
	h.now, h.count, h.salt, h.seq = r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil {
		return h, r.err
	}
	if wu == 0 || du == 0 || wu > 1<<20 || du > 1<<8 || wu*du > 1<<22 {
		return h, fmt.Errorf("core: corrupt dimensions %dx%d", du, wu)
	}
	h.p.Width, h.p.Depth = int(wu), int(du)
	return h, nil
}

// Unmarshal reconstructs a sketch from Marshal output. The decoded sketch
// answers every query identically to the encoded one and remains mergeable
// with its lineage.
func Unmarshal(b []byte) (*Sketch, error) {
	if len(b) == 0 || b[0] != wireECM {
		return nil, errors.New("core: not an ECM-sketch encoding")
	}
	return unmarshal(b)
}

// unmarshal decodes either sketch encoding — dense (wireECM) or sparse
// (wireSparse, see sparse.go) — the tag byte having been checked.
func unmarshal(b []byte) (*Sketch, error) {
	r := &reader{b: b, off: 1, what: "sketch encoding"}
	h, err := readMarshalHeader(r)
	if err != nil {
		return nil, err
	}
	s, err := New(h.p)
	if err != nil {
		return nil, err
	}
	n := s.d * s.w
	var elided []int
	var skip []bool
	if b[0] == wireSparse {
		if s.rw != nil {
			return nil, errors.New("core: sparse encoding of a randomized-wave sketch")
		}
		nElided := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if nElided > uint64(n) {
			return nil, fmt.Errorf("core: sparse encoding elides %d of %d cells", nElided, n)
		}
		elided = make([]int, nElided)
		skip = make([]bool, n)
		prev := 0
		for k := range elided {
			prev = r.index(prev, n, k == 0)
			if r.err != nil {
				return nil, r.err
			}
			elided[k] = prev
			skip[prev] = true
		}
	}
	for i := 0; i < n; i++ {
		if skip != nil && skip[i] {
			continue
		}
		enc := r.chunk()
		if r.err != nil {
			return nil, r.err
		}
		if err := s.bank.UnmarshalCell(i, enc); err != nil {
			return nil, fmt.Errorf("core: counter %d: %w", i, err)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if b[0] == wireSparse && r.off != len(b) {
		return nil, errors.New("core: trailing bytes in sparse encoding")
	}
	// Elided cells are fresh cells moved to the header clock; shipped cells
	// carry their own clocks, so only the elided ones are advanced here.
	for _, idx := range elided {
		s.bank.Advance(idx, h.now)
	}
	s.now = h.now
	s.count = h.count
	s.salt = h.salt
	s.seq = h.seq
	return s, nil
}
