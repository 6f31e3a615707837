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
	// per stripe, where most cells are untouched.
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
	// Encode each cell straight out of the arena through call-local scratch
	// buffers — the arena itself is only read, so frozen sketches (the
	// sharded engine's published views) marshal concurrently without
	// coordination. The bytes are identical to what a per-object counter
	// holding the same content would write.
	var cell []byte
	var scratch []window.Bucket
	for i := 0; i < s.d*s.w; i++ {
		switch {
		case s.eh != nil:
			cell, scratch = s.eh.AppendMarshalCell(cell[:0], i, scratch)
		case s.dw != nil:
			cell = s.dw.AppendMarshalCell(cell[:0], i)
		default:
			cell = s.rw.AppendMarshalCell(cell[:0], i)
		}
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

// WireSize reports len(s.Marshal()) without producing the encoding: the
// fixed header fields are summed directly and each cell's size comes from a
// slab walk that never materializes bytes. This is what lets the
// coordinator's network accounting charge a snapshot's transfer cost at the
// transport boundary while the merge path consumes the snapshot itself — no
// marshal+decode round trip just to know what shipping it would cost.
func (s *Sketch) WireSize() int {
	n := 1 + // wireECM tag
		8 + 8 + // Epsilon, Delta
		3 + // Query, Algorithm, Model bytes
		window.UvarintLen(s.params.WindowLength) +
		window.UvarintLen(s.params.UpperBound) +
		window.UvarintLen(s.params.Seed) +
		window.UvarintLen(uint64(s.w)) +
		window.UvarintLen(uint64(s.d)) +
		8 + 8 + // split.EpsCM, split.EpsSW
		window.UvarintLen(s.now) +
		window.UvarintLen(s.count) +
		window.UvarintLen(s.salt) +
		window.UvarintLen(s.seq)
	for i := 0; i < s.d*s.w; i++ {
		c := s.bank.MarshalCellSize(i)
		n += window.UvarintLen(uint64(c)) + c
	}
	return n
}

// marshalHeader is the decoded fixed sketch header shared by the dense and
// sparse encodings.
type marshalHeader struct {
	p                Params
	now              Tick
	count, salt, seq uint64
}

// readMarshalHeader decodes the header appendMarshalHeader wrote, starting
// at off (just past the tag byte), and returns the offset of the first cell
// payload.
func readMarshalHeader(b []byte, off int) (marshalHeader, int, error) {
	var h marshalHeader
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, errors.New("core: truncated encoding")
		}
		off += n
		return v, nil
	}
	getF := func() (float64, error) {
		if off+8 > len(b) {
			return 0, errors.New("core: truncated encoding")
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		return v, nil
	}
	getB := func() (byte, error) {
		if off >= len(b) {
			return 0, errors.New("core: truncated encoding")
		}
		v := b[off]
		off++
		return v, nil
	}

	var err error
	if h.p.Epsilon, err = getF(); err != nil {
		return h, 0, err
	}
	if h.p.Delta, err = getF(); err != nil {
		return h, 0, err
	}
	q, err := getB()
	if err != nil {
		return h, 0, err
	}
	h.p.Query = QueryKind(q)
	a, err := getB()
	if err != nil {
		return h, 0, err
	}
	h.p.Algorithm = window.Algorithm(a)
	m, err := getB()
	if err != nil {
		return h, 0, err
	}
	h.p.Model = window.Model(m)
	if h.p.WindowLength, err = getU(); err != nil {
		return h, 0, err
	}
	if h.p.UpperBound, err = getU(); err != nil {
		return h, 0, err
	}
	if h.p.Seed, err = getU(); err != nil {
		return h, 0, err
	}
	wu, err := getU()
	if err != nil {
		return h, 0, err
	}
	du, err := getU()
	if err != nil {
		return h, 0, err
	}
	if wu == 0 || du == 0 || wu > 1<<20 || du > 1<<8 || wu*du > 1<<22 {
		return h, 0, fmt.Errorf("core: corrupt dimensions %dx%d", du, wu)
	}
	h.p.Width, h.p.Depth = int(wu), int(du)
	var split Split
	if split.EpsCM, err = getF(); err != nil {
		return h, 0, err
	}
	if split.EpsSW, err = getF(); err != nil {
		return h, 0, err
	}
	h.p.Split = &split
	if h.now, err = getU(); err != nil {
		return h, 0, err
	}
	if h.count, err = getU(); err != nil {
		return h, 0, err
	}
	if h.salt, err = getU(); err != nil {
		return h, 0, err
	}
	if h.seq, err = getU(); err != nil {
		return h, 0, err
	}
	return h, off, nil
}

// Unmarshal reconstructs a sketch from Marshal output. The decoded sketch
// answers every query identically to the encoded one and remains mergeable
// with its lineage.
func Unmarshal(b []byte) (*Sketch, error) {
	if len(b) == 0 || b[0] != wireECM {
		return nil, errors.New("core: not an ECM-sketch encoding")
	}
	h, off, err := readMarshalHeader(b, 1)
	if err != nil {
		return nil, err
	}
	s, err := New(h.p)
	if err != nil {
		return nil, err
	}
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, errors.New("core: truncated encoding")
		}
		off += n
		return v, nil
	}
	for i := 0; i < s.d*s.w; i++ {
		ln, err := getU()
		if err != nil {
			return nil, err
		}
		if ln > uint64(len(b)-off) {
			return nil, errors.New("core: truncated counter encoding")
		}
		enc := b[off : off+int(ln)]
		off += int(ln)
		// Decode straight into the flat arena; cross-version encodings from
		// the per-object engines restore identically.
		if err := s.bank.UnmarshalCell(i, enc); err != nil {
			return nil, fmt.Errorf("core: counter %d: %w", i, err)
		}
	}
	s.now = h.now
	s.count = h.count
	s.salt = h.salt
	s.seq = h.seq
	return s, nil
}
