package window

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Serialization formats. Synopses are serialized when sites ship them to
// aggregators; the encoded size is what the distributed experiments charge
// as network volume. All formats are self-describing little-endian with
// varint-packed payloads.

const (
	wireEH byte = 0xE1
	wireDW byte = 0xE2
	wireRW byte = 0xE3
	// wireEHBare is the config-elided EH cell form used inside delta
	// payloads, where the receiving bank's own Config is authoritative:
	// tag, now, buckets — no embedded Config (~30 B saved per cell).
	// Standalone encodings (Marshal, AppendMarshalCell) keep the
	// self-describing wireEH form byte-for-byte.
	wireEHBare byte = 0xE4
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

// The EH cell encoding: tag, (Config,) now, bucket count, then the buckets
// oldest → newest with boundaries delta-encoded in arrival order and the
// size spelled out, so a typical bucket costs a handful of bytes. The encoder
// walks the level rings in place: the bank is only read, so concurrent
// marshals of a frozen bank (the sharded engine's published views) need no
// coordination and no scratch.

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
	dst = binary.AppendUvarint(dst, uint64(b.NumBuckets(i)))
	var prev Tick
	for lv := int(c.nLv) - 1; lv >= 0; lv-- {
		d := b.level(i, lv)
		size := uint64(1) << uint(lv)
		for j := 0; j < int(d.n); j++ {
			bk := b.at(d, j)
			dst = binary.AppendUvarint(dst, bk.start-prev)
			dst = binary.AppendUvarint(dst, bk.end-bk.start)
			dst = binary.AppendUvarint(dst, size)
			prev = bk.end
		}
	}
	return dst
}

// UnmarshalCell decodes an EH cell encoding, full or bare, into cell i, which
// must be empty.
func (b *EHBank) UnmarshalCell(i int, enc []byte) error {
	r := wireReader{b: enc}
	if err := b.readCellTag(&r, wireEH, wireEHBare, "EH"); err != nil {
		return err
	}
	now, err := r.uvarint()
	if err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(enc)) { // cheap corruption guard: ≥1 byte per bucket
		return errors.New("window: corrupt EH encoding")
	}
	var prev Tick
	for j := uint64(0); j < n; j++ {
		ds, err := r.uvarint()
		if err != nil {
			return err
		}
		de, err := r.uvarint()
		if err != nil {
			return err
		}
		size, err := r.uvarint()
		if err != nil {
			return err
		}
		start := prev + ds
		end := start + de
		prev = end
		b.RestoreBucket(i, Bucket{Start: start, End: end, Size: size})
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
