package core

// Sparse sketch encoding (wireSparse): the hybrid-bootstrap half of the
// delta protocol. A multipart baseline carries every stripe's full d×w cell
// array, but a stripe holds only its share of the keyspace, so most of its
// cells are untouched — and an untouched cell at the sketch clock encodes to
// exactly what a fresh cell advanced there would. MarshalSparse elides those
// cells, listing their indices instead of their encodings, and ships the
// rest in the config-elided bare form deltas already use. The decoder
// reconstructs a sketch byte-identical (Marshal) to the dense original, so
// every downstream invariant — merge identity, delta application, cursor
// validity — is untouched; only the baseline transfer shrinks, from ~2× the
// merged-view encoding to roughly the occupied cells alone.
//
// Randomized-wave cells carry one process-random field even when untouched
// (the auto-identifier salt), which the sparse form ships as a compact
// per-elided-cell list — still an order of magnitude below the cell's dense
// encoding, whose per-copy level directories dominate.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ecmsketch/internal/window"
)

// MarshalSparse encodes the sketch like Marshal but elides cells whose
// encoding the decoder can reproduce without bytes: untouched cells sitting
// at the sketch clock. UnmarshalAny inverts it; the reconstruction is
// byte-identical (Marshal) to the dense encoding. Falls back to the dense
// form when nothing can be elided, so the result is never meaningfully larger
// than Marshal.
func (s *Sketch) MarshalSparse() []byte {
	n := s.d * s.w
	var elided []int
	for i := 0; i < n; i++ {
		if s.bank.CellUntouched(i) && s.bank.Now(i) == s.now {
			elided = append(elided, i)
		}
	}
	if len(elided) == 0 {
		return s.Marshal()
	}
	dst := []byte{wireSparse}
	dst = s.appendMarshalHeader(dst)
	dst = binary.AppendUvarint(dst, uint64(len(elided)))
	prev := 0
	for _, idx := range elided {
		dst = binary.AppendUvarint(dst, uint64(idx-prev))
		prev = idx
	}
	if s.rw != nil {
		for _, idx := range elided {
			dst = binary.AppendUvarint(dst, s.rw.CellIDSalt(idx))
		}
	}
	var cell []byte
	var scratch []window.Bucket
	k := 0
	for i := 0; i < n; i++ {
		if k < len(elided) && elided[k] == i {
			k++
			continue
		}
		switch {
		case s.eh != nil:
			cell, scratch = s.eh.AppendMarshalCellBare(cell[:0], i, scratch)
		case s.dw != nil:
			cell = s.dw.AppendMarshalCellBare(cell[:0], i)
		default:
			cell = s.rw.AppendMarshalCellBare(cell[:0], i)
		}
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

// UnmarshalAny reconstructs a sketch from either encoding: dense (wireECM,
// Marshal) or sparse (wireSparse, MarshalSparse). Receivers in the delta
// protocol decode through this, so producers may ship whichever form is
// smaller.
func UnmarshalAny(b []byte) (*Sketch, error) {
	if len(b) == 0 {
		return nil, errors.New("core: empty sketch encoding")
	}
	switch b[0] {
	case wireECM:
		return Unmarshal(b)
	case wireSparse:
		return unmarshalSparse(b)
	}
	return nil, errors.New("core: not an ECM-sketch encoding")
}

func unmarshalSparse(b []byte) (*Sketch, error) {
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
			return 0, errors.New("core: truncated sparse encoding")
		}
		off += n
		return v, nil
	}
	n := s.d * s.w
	nElided, err := getU()
	if err != nil {
		return nil, err
	}
	if nElided > uint64(n) {
		return nil, fmt.Errorf("core: sparse encoding elides %d of %d cells", nElided, n)
	}
	elided := make([]int, nElided)
	skip := make([]bool, n)
	prev := 0
	for k := range elided {
		dIdx, err := getU()
		if err != nil {
			return nil, err
		}
		// Bound the increment before converting: a huge varint would wrap
		// int and sneak a negative index past the range check.
		if dIdx > uint64(n) {
			return nil, fmt.Errorf("core: sparse cell index increment %d out of range", dIdx)
		}
		idx := prev + int(dIdx)
		if idx >= n || (k > 0 && dIdx == 0) {
			return nil, fmt.Errorf("core: sparse cell index %d out of range", idx)
		}
		prev = idx
		elided[k] = idx
		skip[idx] = true
	}
	var salts []uint64
	if s.rw != nil {
		salts = make([]uint64, nElided)
		for k := range salts {
			if salts[k], err = getU(); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < n; i++ {
		if skip[i] {
			continue
		}
		ln, err := getU()
		if err != nil {
			return nil, err
		}
		if ln > uint64(len(b)-off) {
			return nil, errors.New("core: truncated sparse cell encoding")
		}
		enc := b[off : off+int(ln)]
		off += int(ln)
		if err := s.bank.UnmarshalCell(i, enc); err != nil {
			return nil, fmt.Errorf("core: sparse cell %d: %w", i, err)
		}
	}
	if off != len(b) {
		return nil, errors.New("core: trailing bytes in sparse encoding")
	}
	// Elided cells are fresh cells moved to the header clock (with their
	// identifier salt restored for randomized waves); shipped cells carry
	// their own clocks, so only the elided ones are advanced here.
	for k, idx := range elided {
		if s.rw != nil {
			s.rw.SetCellIDSalt(idx, salts[k])
		}
		s.bank.Advance(idx, h.now)
	}
	s.now = h.now
	s.count = h.count
	s.salt = h.salt
	s.seq = h.seq
	return s, nil
}
