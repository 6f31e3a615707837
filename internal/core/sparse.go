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
	k := 0
	for i := 0; i < n; i++ {
		if k < len(elided) && elided[k] == i {
			k++
			continue
		}
		cell = s.bank.AppendMarshalCellBare(cell[:0], i)
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
	case wireECM, wireSparse:
		return unmarshal(b)
	}
	return nil, errors.New("core: not an ECM-sketch encoding")
}
