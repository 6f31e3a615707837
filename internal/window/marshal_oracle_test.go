package window

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The per-object synopses' own codecs, kept beside them as the reference the
// bank encoders are compared against byte for byte (golden vectors,
// FuzzMarshal, FuzzWaveBank). They share the wire tags, the Config codec and
// the reader with production and nothing else.

type wireWriter struct{ buf bytes.Buffer }

func (w *wireWriter) byte1(b byte) { w.buf.WriteByte(b) }

func (w *wireWriter) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

func (w *wireWriter) f64(v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	w.buf.Write(tmp[:])
}

func (w *wireWriter) config(c Config) {
	w.buf.Write(appendConfig(nil, c))
}

// appendEHBuckets appends the delta-encoded bucket payload shared by the
// per-object and flat-bank EH encoders: boundaries are delta-encoded in
// arrival order, so a typical bucket costs a handful of bytes.
func appendEHBuckets(dst []byte, bs []Bucket) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bs)))
	var prev Tick
	for _, b := range bs {
		dst = binary.AppendUvarint(dst, b.Start-prev)
		dst = binary.AppendUvarint(dst, b.End-b.Start)
		dst = binary.AppendUvarint(dst, b.Size)
		prev = b.End
	}
	return dst
}

// Marshal encodes the histogram.
func (h *EH) Marshal() []byte {
	dst := []byte{wireEH}
	dst = appendConfig(dst, h.cfg)
	dst = binary.AppendUvarint(dst, h.now)
	return appendEHBuckets(dst, h.Buckets()) // oldest → newest, ticks non-decreasing
}

// UnmarshalEH reconstructs a histogram from Marshal output. The
// reconstruction replays the buckets directly (not via the half/half merge
// split), so the decoded histogram answers queries identically to the
// encoded one.
func UnmarshalEH(b []byte) (*EH, error) {
	r := wireReader{b: b}
	tag, err := r.byte1()
	if err != nil {
		return nil, err
	}
	if tag != wireEH {
		return nil, fmt.Errorf("window: expected EH encoding, got tag 0x%02x", tag)
	}
	cfg, err := r.config()
	if err != nil {
		return nil, err
	}
	now, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) { // cheap corruption guard: ≥1 byte per bucket
		return nil, errors.New("window: corrupt EH encoding")
	}
	h, err := NewEH(cfg)
	if err != nil {
		return nil, err
	}
	var prev Tick
	for i := uint64(0); i < n; i++ {
		ds, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		de, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		size, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		start := prev + ds
		end := start + de
		prev = end
		h.restoreBucket(bucketRestore{start: start, end: end, size: size})
	}
	h.normalizeRestored()
	h.Advance(now)
	return h, nil
}

// bucketRestore carries a decoded bucket during reconstruction.
type bucketRestore struct {
	start, end Tick
	size       uint64
}

// restoreBucket appends a decoded bucket into its size class directly,
// bypassing the cascade: Marshal emits buckets from a valid histogram, so
// the class populations already satisfy the invariant.
func (h *EH) restoreBucket(b bucketRestore) {
	lv := 0
	for s := b.size; s > 1; s >>= 1 {
		lv++
	}
	for len(h.levels) <= lv {
		h.levels = append(h.levels, bucketDeque{})
	}
	h.levels[lv].pushBack(bucket{start: b.start, end: b.end})
	h.total += uint64(1) << uint(lv)
	if b.end > h.now {
		h.now = b.end
	}
	h.started = true
}

// normalizeRestored re-checks class budgets after a restore; decoded
// histograms are already canonical, so this is a defensive no-op loop that
// repairs corrupt inputs instead of violating internal invariants.
func (h *EH) normalizeRestored() {
	for lv := 0; lv < len(h.levels); lv++ {
		for h.levels[lv].len() > h.capPerLv {
			older := h.levels[lv].popFront()
			newer := h.levels[lv].popFront()
			if lv+1 == len(h.levels) {
				h.levels = append(h.levels, bucketDeque{})
			}
			h.levels[lv+1].pushBack(bucket{start: older.start, end: newer.end})
		}
	}
}

// Marshal encodes the wave: per-level entry lists with delta-encoded ticks
// and ranks.
func (w *DW) Marshal() []byte {
	var wr wireWriter
	wr.byte1(wireDW)
	wr.config(w.cfg)
	wr.uvarint(w.now)
	wr.uvarint(w.rank)
	wr.uvarint(uint64(len(w.levels)))
	for j := range w.levels {
		d := &w.levels[j]
		wr.uvarint(uint64(d.n))
		if d.evicted {
			wr.byte1(1)
		} else {
			wr.byte1(0)
		}
		var pt Tick
		var pr uint64
		for i := 0; i < d.n; i++ {
			e := d.at(i)
			wr.uvarint(e.t - pt)
			wr.uvarint(e.id - pr)
			pt, pr = e.t, e.id
		}
	}
	return wr.buf.Bytes()
}

// UnmarshalDW reconstructs a wave from Marshal output.
func UnmarshalDW(b []byte) (*DW, error) {
	r := wireReader{b: b}
	tag, err := r.byte1()
	if err != nil {
		return nil, err
	}
	if tag != wireDW {
		return nil, fmt.Errorf("window: expected DW encoding, got tag 0x%02x", tag)
	}
	cfg, err := r.config()
	if err != nil {
		return nil, err
	}
	now, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	rank, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nl, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	w, err := NewDW(cfg)
	if err != nil {
		return nil, err
	}
	if nl != uint64(len(w.levels)) {
		return nil, fmt.Errorf("window: DW encoding has %d levels, config implies %d", nl, len(w.levels))
	}
	for j := uint64(0); j < nl; j++ {
		cnt, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ev, err := r.byte1()
		if err != nil {
			return nil, err
		}
		if cnt > uint64(len(b)) {
			return nil, errors.New("window: corrupt DW encoding")
		}
		d := &w.levels[j]
		var pt Tick
		var pr uint64
		for i := uint64(0); i < cnt; i++ {
			dt, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			dr, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			pt += dt
			pr += dr
			d.pushBack(waveEntry{t: pt, id: pr})
		}
		d.evicted = ev == 1
	}
	w.rank = rank
	w.now = now
	return w, nil
}

// Marshal encodes the randomized wave: per-copy, per-level entry lists with
// delta-encoded ticks and raw identifiers. Identifiers are incompressible,
// which is the dominant reason RW transfer volume exceeds EH by an order of
// magnitude in the distributed experiments.
func (w *RW) Marshal() []byte {
	var wr wireWriter
	wr.byte1(wireRW)
	wr.config(w.cfg)
	wr.uvarint(w.now)
	wr.uvarint(w.count)
	wr.uvarint(w.salt)
	wr.uvarint(w.seq)
	wr.uvarint(uint64(len(w.copies)))
	wr.uvarint(uint64(len(w.copies[0].levels)))
	for r := range w.copies {
		cp := &w.copies[r]
		for j := range cp.levels {
			d := &cp.levels[j]
			wr.uvarint(uint64(d.n))
			if d.evicted {
				wr.byte1(1)
			} else {
				wr.byte1(0)
			}
			var pt Tick
			for i := 0; i < d.n; i++ {
				e := d.at(i)
				wr.uvarint(e.t - pt)
				wr.uvarint(e.id)
				pt = e.t
			}
		}
	}
	return wr.buf.Bytes()
}

// UnmarshalRW reconstructs a randomized wave from Marshal output.
func UnmarshalRW(b []byte) (*RW, error) {
	r := wireReader{b: b}
	tag, err := r.byte1()
	if err != nil {
		return nil, err
	}
	if tag != wireRW {
		return nil, fmt.Errorf("window: expected RW encoding, got tag 0x%02x", tag)
	}
	cfg, err := r.config()
	if err != nil {
		return nil, err
	}
	now, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	salt, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	seq, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	ncopies, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nlevels, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	w, err := NewRW(cfg)
	if err != nil {
		return nil, err
	}
	if ncopies != uint64(len(w.copies)) || nlevels != uint64(len(w.copies[0].levels)) {
		return nil, fmt.Errorf("window: RW encoding shape %dx%d, config implies %dx%d",
			ncopies, nlevels, len(w.copies), len(w.copies[0].levels))
	}
	for cr := range w.copies {
		cp := &w.copies[cr]
		for j := range cp.levels {
			cnt, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			ev, err := r.byte1()
			if err != nil {
				return nil, err
			}
			if cnt > uint64(len(b)) {
				return nil, errors.New("window: corrupt RW encoding")
			}
			d := &cp.levels[j]
			var pt Tick
			for i := uint64(0); i < cnt; i++ {
				dt, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				id, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				pt += dt
				d.pushBack(rwEntry{t: pt, id: id})
			}
			d.evicted = ev == 1
		}
	}
	w.now = now
	w.count = count
	w.salt = salt
	w.seq = seq
	return w, nil
}
