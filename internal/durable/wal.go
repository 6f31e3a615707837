package durable

import (
	"encoding/binary"
	"hash/crc32"
)

// WAL frame layout: [u32 payload length][u32 CRC-32C of payload][payload],
// both integers little-endian. Frames are self-delimiting, so replay needs
// no index; a frame whose length runs past the file or whose CRC fails
// marks the torn tail — everything before it is intact, everything from it
// on is truncated.
const frameHeader = 8

// maxFrame bounds a single record; real records are a sub-batch of events
// (a few KB), so anything near this is corruption, not data.
const maxFrame = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends rec's WAL frame to dst: it reserves the header,
// encodes the record in place behind it (see AppendRecord), then fills in
// the payload length and CRC. One Log.Append of the result logs the record.
func AppendFrame(dst []byte, rec *Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = AppendRecord(dst, rec)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Replay decodes every intact frame of a log segment in append order. A
// torn or CRC-failing tail — a crash mid-append, or garbage — is truncated
// off the log in place, so the next append starts at the last intact
// frame; the intact prefix is returned either way. Frame payloads alias
// one ReadAll buffer.
func Replay(log Log) ([][]byte, error) {
	data, err := log.ReadAll()
	if err != nil {
		return nil, err
	}
	var recs [][]byte
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrame || off+frameHeader+n > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			break
		}
		recs = append(recs, payload)
		off += frameHeader + n
	}
	if off < len(data) {
		if err := log.Truncate(int64(off)); err != nil {
			return nil, err
		}
	}
	return recs, nil
}
