package window

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Serialization formats. Synopses are serialized when sites ship them to
// aggregators; the encoded size is what the distributed experiments charge
// as network volume. All formats are self-describing little-endian with
// varint-packed payloads.

const (
	// wireEH is the self-describing EH cell form; wireEHBare is the
	// config-elided one used inside delta payloads, where the receiving
	// bank's own Config is authoritative (~30 B saved per cell). Both carry
	// the size-free body described at appendCellBody.
	wireEH     byte = 0xE7
	wireEHBare byte = 0xE8
	// wireEHSized and wireEHSizedBare are the earlier EH cell forms, whose
	// body spells out every bucket's size. Nothing writes them any more;
	// UnmarshalCell still reads them, so state persisted before the size-free
	// form recovers.
	wireEHSized     byte = 0xE1
	wireEHSizedBare byte = 0xE4
	wireDW          byte = 0xE2
	wireRW          byte = 0xE3
	// wireDWBare / wireRWBare are the config-elided wave cell forms used
	// inside delta payloads, mirroring wireEHBare: the full wireDW/wireRW
	// body minus the embedded Config. Level/copy counts stay (one byte
	// each) as a cheap shape check against the receiving bank.
	wireDWBare byte = 0xE5
	wireRWBare byte = 0xE6
)

var errTruncated = errors.New("window: truncated encoding")

type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) byte1() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	return v, nil
}

func (r *wireReader) f64() (float64, error) {
	if r.off+8 > len(r.b) {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *wireReader) config() (Config, error) {
	var c Config
	m, err := r.byte1()
	if err != nil {
		return c, err
	}
	c.Model = Model(m)
	if c.Length, err = r.uvarint(); err != nil {
		return c, err
	}
	if c.Epsilon, err = r.f64(); err != nil {
		return c, err
	}
	if c.Delta, err = r.f64(); err != nil {
		return c, err
	}
	if c.UpperBound, err = r.uvarint(); err != nil {
		return c, err
	}
	if c.Seed, err = r.uvarint(); err != nil {
		return c, err
	}
	return c, nil
}

// configEqual compares configurations field by field, with floats compared
// bitwise so that NaN-carrying (corrupt but decodable) configurations still
// compare equal to themselves after a round-trip.
func configEqual(a, b Config) bool {
	return a.Model == b.Model && a.Length == b.Length &&
		math.Float64bits(a.Epsilon) == math.Float64bits(b.Epsilon) &&
		math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		a.UpperBound == b.UpperBound && a.Seed == b.Seed
}

// appendConfig appends the Config wire encoding to dst. It is the single
// Config encoder (wireWriter.config delegates here); wireReader.config is
// its inverse.
func appendConfig(dst []byte, c Config) []byte {
	var tmp [8]byte
	dst = append(dst, byte(c.Model))
	dst = binary.AppendUvarint(dst, c.Length)
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(c.Epsilon))
	dst = append(dst, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(c.Delta))
	dst = append(dst, tmp[:]...)
	dst = binary.AppendUvarint(dst, c.UpperBound)
	dst = binary.AppendUvarint(dst, c.Seed)
	return dst
}

// The EH cell encoding: tag, (Config,) then the body: now, the level count
// L, one bucket count per size class from L−1 down to 0, then the buckets
// oldest → newest, each as its start delta from the previous bucket's end
// plus, above class 0, its span end − start. A bucket's size is 2^class, so
// the per-class counts carry every size; a class-0 bucket is one arrival, so
// its span is 0. A typical bucket costs two bytes. The encoder walks the
// level rings in place: the bank is only read, so concurrent marshals of a
// frozen bank (the sharded engine's published views) need no coordination
// and no scratch.

// maxEHLevels bounds L: a class-64 bucket would hold 2^64 arrivals.
const maxEHLevels = 64

// AppendMarshalCell appends cell i's self-describing encoding to dst.
func (b *EHBank) AppendMarshalCell(dst []byte, i int) []byte {
	dst = append(dst, wireEH)
	dst = appendConfig(dst, b.cfg)
	return b.appendCellBody(dst, i)
}

// AppendMarshalCellBare appends cell i's config-elided encoding
// (wireEHBare) to dst; see Bank.
func (b *EHBank) AppendMarshalCellBare(dst []byte, i int) []byte {
	dst = append(dst, wireEHBare)
	return b.appendCellBody(dst, i)
}

func (b *EHBank) appendCellBody(dst []byte, i int) []byte {
	c := &b.cells[i]
	dst = binary.AppendUvarint(dst, c.now)
	top := int(c.nLv) // empty classes above the oldest bucket are not written
	for top > 0 && b.level(i, top-1).n == 0 {
		top--
	}
	dst = binary.AppendUvarint(dst, uint64(top))
	for lv := top - 1; lv >= 0; lv-- {
		dst = binary.AppendUvarint(dst, uint64(b.level(i, lv).n))
	}
	var prev Tick
	for lv := top - 1; lv >= 0; lv-- {
		d := b.level(i, lv)
		for j := 0; j < int(d.n); j++ {
			bk := b.at(d, j)
			dst = binary.AppendUvarint(dst, bk.start-prev)
			if lv > 0 {
				dst = binary.AppendUvarint(dst, bk.end-bk.start)
			}
			prev = bk.end
		}
	}
	return dst
}

var errCorruptEH = errors.New("window: corrupt EH encoding")

// canonicalEHBucket reports whether a decoded bucket of size class lv keeps
// the order every histogram built by arrivals or merges has: read oldest →
// newest, ticks never go back (neither delta wrapped past 2^64), and a
// class-0 bucket, one arrival, spans a single tick. Classes never grow along
// that read — the size-free body lists them from the top down, and the
// sized one is checked as it is read — so a cell whose buckets all pass
// files them level by level in arrival order, and its level walk, highest
// class first, is tick-ordered: the invariant EstimateSince and the merge
// kernel read instead of checking.
func canonicalEHBucket(prevEnd, start, end Tick, lv int) bool {
	return start >= prevEnd && end >= start && (lv > 0 || end == start)
}

// UnmarshalCell decodes an EH cell encoding, full or bare, into cell i, which
// must be empty. The size-free forms give each class's bucket count up
// front; the sized forms (wireEHSized, wireEHSizedBare) give each bucket's
// size, which must be a power of two no larger than its predecessor's. Either
// way the buckets are read by one loop and filed a class at a time. An
// encoding that breaks bucket order (canonicalEHBucket) is rejected, so every
// cell of a bank is tick-ordered; cell i may then hold the buckets decoded
// before the bad one and must be reset before reuse.
func (b *EHBank) UnmarshalCell(i int, enc []byte) error {
	r := wireReader{b: enc}
	sized := len(enc) > 0 && (enc[0] == wireEHSized || enc[0] == wireEHSizedBare)
	full, bare := wireEH, wireEHBare
	if sized {
		full, bare = wireEHSized, wireEHSizedBare
	}
	if err := b.readCellTag(&r, full, bare, "EH"); err != nil {
		return err
	}
	now, err := r.uvarint()
	if err != nil {
		return err
	}
	// n buckets in all; counts[lv] per class in the size-free form. Both pass
	// the cheap corruption guard — at least one byte per bucket — before any
	// room is reserved.
	var counts [maxEHLevels]uint64
	var n uint64
	lv := maxEHLevels // the class being filed; none yet
	if sized {
		if n, err = r.uvarint(); err != nil {
			return err
		}
		if n > uint64(len(enc)) {
			return errCorruptEH
		}
	} else {
		levels, err := r.uvarint()
		if err != nil {
			return err
		}
		if levels > maxEHLevels {
			return errCorruptEH
		}
		for l := int(levels) - 1; l >= 0; l-- {
			if counts[l], err = r.uvarint(); err != nil {
				return err
			}
			if n += counts[l]; counts[l] > uint64(len(enc)) || n > uint64(len(enc)) {
				return errCorruptEH
			}
		}
		lv = int(levels)
	}
	c := &b.cells[i]
	var d *ehLevel
	var prev Tick
	left := uint64(0) // buckets still to read in class lv (size-free form)
	for j := uint64(0); j < n; j++ {
		next := lv
		if !sized {
			for left == 0 {
				next--
				left = counts[next]
			}
			left--
		}
		ds, err := r.uvarint()
		if err != nil {
			return err
		}
		var de uint64
		if sized || next > 0 {
			if de, err = r.uvarint(); err != nil {
				return err
			}
		}
		if sized {
			size, err := r.uvarint()
			if err != nil {
				return err
			}
			if size == 0 || size&(size-1) != 0 {
				return errCorruptEH
			}
			if next = bits.TrailingZeros64(size); next > lv {
				return errCorruptEH
			}
		}
		start := prev + ds
		end := start + de
		if !canonicalEHBucket(prev, start, end, next) {
			return errCorruptEH
		}
		prev = end
		if next != lv || int(d.n) == b.stride {
			// A new class: carve it. A full ring, which only a corrupt
			// encoding reaches, merges its two oldest buckets upward first.
			lv = next
			for int(c.nLv) <= lv {
				b.addLevel(i)
			}
			b.ensureRoom(i, c, lv)
			d = b.level(i, lv)
		}
		b.pushBack(d, bucket{start: start, end: end})
		c.total += uint64(1) << uint(lv)
		c.now = max(c.now, end)
		b.noteCellMutation(i)
	}
	b.NormalizeRestored(i)
	b.Advance(i, now)
	return nil
}

// The DW cell encoding: tag, (Config,) now, rank, level count — a cheap
// shape check against the receiving bank — then the ring payload with
// delta-encoded ranks (wavering.go).

// AppendMarshalCell appends cell i's self-describing encoding to dst.
func (b *DWBank) AppendMarshalCell(dst []byte, i int) []byte {
	dst = append(dst, wireDW)
	dst = appendConfig(dst, b.cfg)
	return b.appendCellBody(dst, i)
}

// AppendMarshalCellBare appends cell i's config-elided encoding
// (wireDWBare) to dst; see Bank.
func (b *DWBank) AppendMarshalCellBare(dst []byte, i int) []byte {
	dst = append(dst, wireDWBare)
	return b.appendCellBody(dst, i)
}

func (b *DWBank) appendCellBody(dst []byte, i int) []byte {
	c := &b.cells[i]
	dst = binary.AppendUvarint(dst, c.now)
	dst = binary.AppendUvarint(dst, c.rank)
	dst = binary.AppendUvarint(dst, uint64(b.nLv))
	return b.appendRings(dst, i, true)
}

// UnmarshalCell decodes a DW cell encoding, full or bare, into cell i, which
// must be empty. The level count must match the bank's geometry either way.
func (b *DWBank) UnmarshalCell(i int, enc []byte) error {
	r := wireReader{b: enc}
	if err := b.readCellTag(&r, wireDW, wireDWBare, "DW"); err != nil {
		return err
	}
	var now, rank, nl uint64
	for _, f := range []*uint64{&now, &rank, &nl} {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		*f = v
	}
	if nl != uint64(b.nLv) {
		return fmt.Errorf("window: DW encoding has %d levels, bank implies %d", nl, b.nLv)
	}
	oldest, err := b.readRings(&r, i, true, "DW")
	if err != nil {
		return err
	}
	b.cells[i] = dwCell{waveClock{now, oldest}, rank}
	b.noteCellMutation(i)
	return nil
}

// The RW cell encoding: tag, (Config,) now, count, salt, sequence, copy and
// level counts, then the ring payload with raw identifiers (wavering.go).

// AppendMarshalCell appends cell i's self-describing encoding to dst.
func (b *RWBank) AppendMarshalCell(dst []byte, i int) []byte {
	dst = append(dst, wireRW)
	dst = appendConfig(dst, b.cfg)
	return b.appendCellBody(dst, i)
}

// AppendMarshalCellBare appends cell i's config-elided encoding
// (wireRWBare) to dst; see Bank.
func (b *RWBank) AppendMarshalCellBare(dst []byte, i int) []byte {
	dst = append(dst, wireRWBare)
	return b.appendCellBody(dst, i)
}

func (b *RWBank) appendCellBody(dst []byte, i int) []byte {
	c := &b.cells[i]
	for _, v := range [...]uint64{c.now, c.count, c.salt, c.seq, uint64(b.reps), uint64(b.nLv)} {
		dst = binary.AppendUvarint(dst, v)
	}
	return b.appendRings(dst, i, false)
}

// UnmarshalCell decodes an RW cell encoding, full or bare, into cell i, which
// must be empty. The copy/level shape must match the bank's geometry either
// way.
func (b *RWBank) UnmarshalCell(i int, enc []byte) error {
	r := wireReader{b: enc}
	if err := b.readCellTag(&r, wireRW, wireRWBare, "RW"); err != nil {
		return err
	}
	var now, count, salt, seq, ncopies, nlevels uint64
	for _, f := range []*uint64{&now, &count, &salt, &seq, &ncopies, &nlevels} {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		*f = v
	}
	if ncopies != uint64(b.reps) || nlevels != uint64(b.nLv) {
		return fmt.Errorf("window: RW encoding shape %dx%d, bank implies %dx%d",
			ncopies, nlevels, b.reps, b.nLv)
	}
	oldest, err := b.readRings(&r, i, false, "RW")
	if err != nil {
		return err
	}
	b.cells[i] = rwCell{waveClock{now, oldest}, count, salt, seq}
	b.noteCellMutation(i)
	return nil
}
