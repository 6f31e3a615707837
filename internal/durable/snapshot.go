package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ecmsketch/internal/core"
)

// Snapshot blob layout: magic "ECMD", format byte, then uvarint-packed
// fields and length-prefixed part payloads, closed by a little-endian
// CRC-32C over everything before it. The whole blob is saved atomically
// (Store.Save), so recovery sees either a complete intact snapshot or
// none; a failed magic, format or CRC means the blob cannot be trusted
// and all durable state is discarded to a fresh epoch.
var snapshotMagic = []byte{'E', 'C', 'M', 'D'}

const snapshotFormat = 1

// maxSnapshotParts mirrors the delta protocol's part bound; real engines
// have one part per lock stripe.
const maxSnapshotParts = 1 << 12

// Snapshot is the durable image of an engine at one instant: identity
// (epoch, generation, configuration fingerprint), the engine clock, and
// per part the ordinary wire encoding plus the version vector the wire
// format deliberately omits.
type Snapshot struct {
	Epoch       uint64
	Gen         uint64
	Now         uint64
	Fingerprint uint64
	Parts       []SnapshotPart
}

// SnapshotPart is one striped part: Enc is the part's standard Marshal
// bytes (byte-identical to what the wire ships), Ver/Vers the
// arrival-mutation version state at capture.
type SnapshotPart struct {
	Enc  []byte
	Ver  uint64
	Vers []uint64
}

// Encode serializes the snapshot blob.
func (s *Snapshot) Encode() []byte {
	dst := append([]byte(nil), snapshotMagic...)
	dst = append(dst, snapshotFormat)
	dst = binary.AppendUvarint(dst, s.Epoch)
	dst = binary.AppendUvarint(dst, s.Gen)
	dst = binary.AppendUvarint(dst, s.Now)
	dst = binary.AppendUvarint(dst, s.Fingerprint)
	dst = binary.AppendUvarint(dst, uint64(len(s.Parts)))
	for i := range s.Parts {
		p := &s.Parts[i]
		dst = binary.AppendUvarint(dst, uint64(len(p.Enc)))
		dst = append(dst, p.Enc...)
		dst = binary.AppendUvarint(dst, p.Ver)
		dst = binary.AppendUvarint(dst, uint64(len(p.Vers)))
		for _, v := range p.Vers {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst, castagnoli))
}

// DecodeSnapshot parses and validates a snapshot blob. Any failure —
// wrong magic, unknown format, bad CRC, truncation — returns an error;
// the caller treats it as "no usable snapshot" and discards.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < len(snapshotMagic)+1+4 {
		return nil, errors.New("durable: snapshot blob too short")
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, errors.New("durable: snapshot CRC mismatch")
	}
	if string(body[:4]) != string(snapshotMagic) {
		return nil, errors.New("durable: not a snapshot blob")
	}
	if body[4] != snapshotFormat {
		return nil, fmt.Errorf("durable: unknown snapshot format %d", body[4])
	}
	off := 5
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, errors.New("durable: truncated snapshot")
		}
		off += n
		return v, nil
	}
	var s Snapshot
	var err error
	if s.Epoch, err = getU(); err != nil {
		return nil, err
	}
	if s.Gen, err = getU(); err != nil {
		return nil, err
	}
	if s.Now, err = getU(); err != nil {
		return nil, err
	}
	if s.Fingerprint, err = getU(); err != nil {
		return nil, err
	}
	nparts, err := getU()
	if err != nil {
		return nil, err
	}
	if nparts > maxSnapshotParts || nparts > uint64(len(body)-off)/3 { // each part is ≥ 3 bytes
		return nil, fmt.Errorf("durable: snapshot declares %d parts", nparts)
	}
	s.Parts = make([]SnapshotPart, nparts)
	for i := range s.Parts {
		ln, err := getU()
		if err != nil {
			return nil, err
		}
		if ln > uint64(len(body)-off) {
			return nil, errors.New("durable: truncated snapshot part")
		}
		s.Parts[i].Enc = body[off : off+int(ln)]
		off += int(ln)
		if s.Parts[i].Ver, err = getU(); err != nil {
			return nil, err
		}
		nvers, err := getU()
		if err != nil {
			return nil, err
		}
		if nvers > uint64(len(body)-off) { // each version is ≥ 1 byte
			return nil, errors.New("durable: truncated version vector")
		}
		if nvers > 0 {
			s.Parts[i].Vers = make([]uint64, nvers)
			for j := range s.Parts[i].Vers {
				if s.Parts[i].Vers[j], err = getU(); err != nil {
					return nil, err
				}
			}
		}
	}
	if off != len(body) {
		return nil, errors.New("durable: trailing bytes in snapshot")
	}
	return &s, nil
}

// WAL record kinds. Every segment starts with one Header record binding
// it to an epoch and generation; Batch and Advance records mirror the
// engine's applied mutations in per-part apply order.
const (
	// RecordHeader: Epoch, Gen, Fingerprint.
	RecordHeader byte = 0
	// RecordBatch: Part, Tick (the part's clock immediately before the
	// apply — replay restores it clock-only, no settling, so expiry runs
	// exactly where the original ran it), Ver (the part's arrival-mutation
	// version immediately after — replay skips records the restored
	// snapshot already covers and cross-checks the rest), Events.
	RecordBatch byte = 1
	// RecordAdvance: Part, Tick (clock target; idempotent on replay).
	RecordAdvance byte = 2
)

// Record is one WAL entry; which fields are meaningful depends on Kind.
type Record struct {
	Kind        byte
	Epoch       uint64
	Gen         uint64
	Fingerprint uint64
	Part        uint64
	Tick        uint64
	Ver         uint64
	Events      []core.Event
}

// AppendRecord appends the record's payload encoding (the bytes inside a
// WAL frame) to dst.
func AppendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, r.Kind)
	switch r.Kind {
	case RecordHeader:
		dst = binary.AppendUvarint(dst, r.Epoch)
		dst = binary.AppendUvarint(dst, r.Gen)
		dst = binary.AppendUvarint(dst, r.Fingerprint)
	case RecordBatch:
		dst = binary.AppendUvarint(dst, r.Part)
		dst = binary.AppendUvarint(dst, r.Tick)
		dst = binary.AppendUvarint(dst, r.Ver)
		dst = binary.AppendUvarint(dst, uint64(len(r.Events)))
		for _, ev := range r.Events {
			dst = binary.AppendUvarint(dst, ev.Key)
			dst = binary.AppendUvarint(dst, ev.Tick)
			dst = binary.AppendUvarint(dst, ev.N)
		}
	case RecordAdvance:
		dst = binary.AppendUvarint(dst, r.Part)
		dst = binary.AppendUvarint(dst, r.Tick)
	}
	return dst
}

// DecodeRecord parses one WAL record payload.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) == 0 {
		return Record{}, errors.New("durable: empty WAL record")
	}
	r := Record{Kind: b[0]}
	off := 1
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, errors.New("durable: truncated WAL record")
		}
		off += n
		return v, nil
	}
	var err error
	switch r.Kind {
	case RecordHeader:
		if r.Epoch, err = getU(); err != nil {
			return Record{}, err
		}
		if r.Gen, err = getU(); err != nil {
			return Record{}, err
		}
		if r.Fingerprint, err = getU(); err != nil {
			return Record{}, err
		}
	case RecordBatch:
		if r.Part, err = getU(); err != nil {
			return Record{}, err
		}
		if r.Tick, err = getU(); err != nil {
			return Record{}, err
		}
		if r.Ver, err = getU(); err != nil {
			return Record{}, err
		}
		nev, err := getU()
		if err != nil {
			return Record{}, err
		}
		if nev > uint64(len(b)-off) { // each event is ≥ 3 bytes
			return Record{}, errors.New("durable: truncated WAL batch")
		}
		r.Events = make([]core.Event, nev)
		for i := range r.Events {
			if r.Events[i].Key, err = getU(); err != nil {
				return Record{}, err
			}
			if r.Events[i].Tick, err = getU(); err != nil {
				return Record{}, err
			}
			if r.Events[i].N, err = getU(); err != nil {
				return Record{}, err
			}
		}
	case RecordAdvance:
		if r.Part, err = getU(); err != nil {
			return Record{}, err
		}
		if r.Tick, err = getU(); err != nil {
			return Record{}, err
		}
	default:
		return Record{}, fmt.Errorf("durable: unknown WAL record kind %d", r.Kind)
	}
	if off != len(b) {
		return Record{}, errors.New("durable: trailing bytes in WAL record")
	}
	return r, nil
}
