package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ecmsketch/internal/core"
)

// stores returns one of each Store implementation, file-backed rooted in a
// fresh temp dir, so every test runs against both.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	return map[string]Store{"mem": NewMemStore(), "file": fs}
}

func TestStoreBlobRoundTrip(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Load("snapshot"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Load missing: got %v, want ErrNotFound", err)
			}
			want := []byte("hello durable world")
			if err := st.Save("snapshot", want); err != nil {
				t.Fatalf("Save: %v", err)
			}
			got, err := st.Load("snapshot")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Load: %q, %v", got, err)
			}
			// Overwrite is atomic replace, not append.
			want2 := []byte("v2")
			if err := st.Save("snapshot", want2); err != nil {
				t.Fatalf("Save 2: %v", err)
			}
			if got, _ := st.Load("snapshot"); !bytes.Equal(got, want2) {
				t.Fatalf("Load after overwrite: %q", got)
			}
			if err := st.Delete("snapshot"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := st.Load("snapshot"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Load after delete: got %v, want ErrNotFound", err)
			}
			// Deleting a missing blob is idempotent.
			if err := st.Delete("snapshot"); err != nil {
				t.Fatalf("Delete missing: %v", err)
			}
		})
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", ".", "..", "a/b", "a\\b", "../escape"} {
				if err := st.Save(bad, []byte("x")); err == nil {
					t.Errorf("Save(%q): no error", bad)
				}
				if _, err := st.OpenLog(bad); err == nil {
					t.Errorf("OpenLog(%q): no error", bad)
				}
			}
		})
	}
}

func TestLogPersistsAcrossReopen(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			log, err := st.OpenLog("wal-1")
			if err != nil {
				t.Fatalf("OpenLog: %v", err)
			}
			for _, p := range []string{"one", "two", "three"} {
				if err := log.Append([]byte(p)); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := log.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if n, err := log.Size(); err != nil || n != int64(len("onetwothree")) {
				t.Fatalf("Size: %d, %v", n, err)
			}
			if err := log.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// Reopen: the engine-restart path.
			log, err = st.OpenLog("wal-1")
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			data, err := log.ReadAll()
			if err != nil || string(data) != "onetwothree" {
				t.Fatalf("ReadAll after reopen: %q, %v", data, err)
			}
			if err := log.Truncate(3); err != nil {
				t.Fatalf("Truncate: %v", err)
			}
			if data, _ := log.ReadAll(); string(data) != "one" {
				t.Fatalf("ReadAll after truncate: %q", data)
			}
			// Appends land after the truncation point.
			if err := log.Append([]byte("!")); err != nil {
				t.Fatalf("Append after truncate: %v", err)
			}
			if data, _ := log.ReadAll(); string(data) != "one!" {
				t.Fatalf("ReadAll after truncate+append: %q", data)
			}
			log.Close()
		})
	}
}

func TestWALReplayRoundTrip(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			log, err := st.OpenLog("wal")
			if err != nil {
				t.Fatal(err)
			}
			w := NewWAL(log)
			payloads := [][]byte{[]byte("a"), []byte("bb"), {}, []byte("dddd")}
			for i, p := range payloads {
				if err := w.Append(p, i%2 == 0); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
			}
			recs, bytesN, _ := w.Stats()
			if recs != uint64(len(payloads)) || bytesN == 0 {
				t.Fatalf("Stats: %d records %d bytes", recs, bytesN)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			log, err = st.OpenLog("wal")
			if err != nil {
				t.Fatal(err)
			}
			got, err := Replay(log)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if len(got) != len(payloads) {
				t.Fatalf("Replay: %d records, want %d", len(got), len(payloads))
			}
			for i := range got {
				if !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("record %d: %q want %q", i, got[i], payloads[i])
				}
			}
			log.Close()
		})
	}
}

// TestWALTornTail covers the crash shapes replay must absorb: a frame cut
// mid-payload, a frame cut mid-header, a CRC-corrupted frame, and pure
// trailing garbage. In every case the intact prefix survives and the log
// is truncated so the next append continues cleanly.
func TestWALTornTail(t *testing.T) {
	frame := func(p []byte) []byte {
		var b []byte
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, castagnoli))
		return append(b, p...)
	}
	good := [][]byte{[]byte("alpha"), []byte("beta")}
	var prefix []byte
	for _, p := range good {
		prefix = append(prefix, frame(p)...)
	}
	cases := map[string][]byte{
		"cut mid-payload": frame([]byte("gamma-long-payload"))[:frameHeader+4],
		"cut mid-header":  {0x09, 0x00, 0x00},
		"bad crc": func() []byte {
			f := frame([]byte("gamma"))
			f[4] ^= 0xFF
			return f
		}(),
		"garbage":         {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06},
		"absurd length":   binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1<<30), 0),
		"clean (no tail)": nil,
	}
	for name, tail := range cases {
		t.Run(name, func(t *testing.T) {
			st := NewMemStore()
			log, err := st.OpenLog("wal")
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(append(append([]byte(nil), prefix...), tail...)); err != nil {
				t.Fatal(err)
			}
			recs, err := Replay(log)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if len(recs) != len(good) {
				t.Fatalf("got %d records, want %d", len(recs), len(good))
			}
			for i := range recs {
				if !bytes.Equal(recs[i], good[i]) {
					t.Fatalf("record %d: %q", i, recs[i])
				}
			}
			if n, _ := log.Size(); n != int64(len(prefix)) {
				t.Fatalf("log not truncated: size %d want %d", n, len(prefix))
			}
			// The WAL continues from the truncation point.
			w := NewWAL(log)
			if err := w.Append([]byte("resumed"), true); err != nil {
				t.Fatal(err)
			}
			recs, err = Replay(log)
			if err != nil || len(recs) != len(good)+1 || string(recs[len(good)]) != "resumed" {
				t.Fatalf("replay after resume: %d recs, %v", len(recs), err)
			}
			log.Close()
		})
	}
}

// codecSnapshot is the snapshot TestSnapshotCodecRoundTrip round-trips and
// FuzzSnapshotCodec starts from.
var codecSnapshot = Snapshot{
	Epoch:       0xDEADBEEF,
	Gen:         7,
	Now:         123456,
	Fingerprint: 0xCAFEBABE12345678,
	Parts: []SnapshotPart{
		{Enc: []byte("part-zero"), Ver: 42, Vers: []uint64{1, 2, 3, 42}},
		{Enc: nil, Ver: 0, Vers: nil},
		{Enc: []byte{0xFF}, Ver: 1 << 40, Vers: []uint64{1 << 40}},
	},
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := &codecSnapshot
	blob := s.Encode()
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Epoch != s.Epoch || got.Gen != s.Gen || got.Now != s.Now || got.Fingerprint != s.Fingerprint {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Parts) != len(s.Parts) {
		t.Fatalf("parts: %d", len(got.Parts))
	}
	for i := range s.Parts {
		if !bytes.Equal(got.Parts[i].Enc, s.Parts[i].Enc) || got.Parts[i].Ver != s.Parts[i].Ver ||
			!reflect.DeepEqual(append([]uint64{}, got.Parts[i].Vers...), append([]uint64{}, s.Parts[i].Vers...)) {
			t.Fatalf("part %d mismatch: %+v want %+v", i, got.Parts[i], s.Parts[i])
		}
	}
}

func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	blob := (&Snapshot{Epoch: 1, Gen: 1, Now: 9, Fingerprint: 5,
		Parts: []SnapshotPart{{Enc: []byte("abc"), Ver: 3, Vers: []uint64{3}}}}).Encode()
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("nil blob: no error")
	}
	if _, err := DecodeSnapshot(blob[:len(blob)-1]); err == nil {
		t.Error("truncated blob: no error")
	}
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x01
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Errorf("bit flip at %d: no error", i)
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte: no error")
	}
}

// codecRecords are the records TestRecordCodecRoundTrip round-trips and
// FuzzRecordCodec starts from: one of each kind, and an empty batch.
var codecRecords = []Record{
	{Kind: RecordHeader, Epoch: 99, Gen: 3, Fingerprint: 0xABCD},
	{Kind: RecordBatch, Part: 5, Tick: 1000, Ver: 77, Events: []core.Event{
		{Key: 1, Tick: 1000, N: 1}, {Key: 0xFFFFFFFFFFFFFFFF, Tick: 1001, N: 12},
	}},
	{Kind: RecordBatch, Part: 0, Tick: 0, Ver: 1, Events: nil},
	{Kind: RecordAdvance, Part: 2, Tick: 424242},
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for i, r := range codecRecords {
		b := AppendRecord(nil, &r)
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Kind != r.Kind || got.Epoch != r.Epoch || got.Gen != r.Gen ||
			got.Fingerprint != r.Fingerprint || got.Part != r.Part ||
			got.Tick != r.Tick || got.Ver != r.Ver || len(got.Events) != len(r.Events) {
			t.Fatalf("record %d mismatch: %+v want %+v", i, got, r)
		}
		for j := range r.Events {
			if got.Events[j] != r.Events[j] {
				t.Fatalf("record %d event %d: %+v", i, j, got.Events[j])
			}
		}
	}
}

func TestRecordCodecRejectsCorruption(t *testing.T) {
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("empty record: no error")
	}
	if _, err := DecodeRecord([]byte{0x7F}); err == nil {
		t.Error("unknown kind: no error")
	}
	b := AppendRecord(nil, &Record{Kind: RecordBatch, Part: 1, Tick: 2, Ver: 3,
		Events: []core.Event{{Key: 4, Tick: 5, N: 6}}})
	if _, err := DecodeRecord(b[:len(b)-1]); err == nil {
		t.Error("truncated record: no error")
	}
	if _, err := DecodeRecord(append(append([]byte(nil), b...), 0)); err == nil {
		t.Error("trailing bytes: no error")
	}
}

// assertAllocBound fails t if decode allocates more than a fixed slack plus 64
// bytes per input byte: a decoder may size what it builds by what the input
// claims only once the input is long enough to back the claim. The least of
// three runs counts, so an allocation elsewhere in the process cannot fail it.
func assertAllocBound(t *testing.T, input []byte, decode func()) {
	t.Helper()
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		decode()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if limit := 1024 + 64*uint64(len(input)); least > limit {
		t.Fatalf("%d-byte input: decoding allocated %d bytes, over %d", len(input), least, limit)
	}
}

// FuzzRecordCodec: DecodeRecord never panics or allocates past what its input
// can back, and whatever it accepts re-encodes to bytes that decode to the
// same record (not necessarily to the same bytes: a uvarint may be spelled
// with redundant continuation bytes).
func FuzzRecordCodec(f *testing.F) {
	for i := range codecRecords {
		f.Add(AppendRecord(nil, &codecRecords[i]))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		assertAllocBound(t, b, func() { DecodeRecord(b) }) //nolint:errcheck // measured, not checked
		r, err := DecodeRecord(b)
		if err != nil {
			return
		}
		back, err := DecodeRecord(AppendRecord(nil, &r))
		if err != nil || !reflect.DeepEqual(back, r) {
			t.Fatalf("%x decoded to %+v, which re-encoded and decoded to %+v, err %v", b, r, back, err)
		}
	})
}

// FuzzSnapshotCodec holds DecodeSnapshot to the same two properties. Each
// input is tried as it is and sealed with its own CRC-32C, so the fuzzer
// reaches the field parser behind the checksum rather than only the checksum.
func FuzzSnapshotCodec(f *testing.F) {
	blob := codecSnapshot.Encode()
	f.Add(blob[:len(blob)-4])
	f.Add((&Snapshot{}).Encode())
	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := binary.LittleEndian.AppendUint32(append([]byte{}, body...), crc32.Checksum(body, castagnoli))
		for _, b := range [][]byte{body, sealed} {
			assertAllocBound(t, b, func() { DecodeSnapshot(b) }) //nolint:errcheck // measured, not checked
			s, err := DecodeSnapshot(b)
			if err != nil {
				continue
			}
			back, err := DecodeSnapshot(s.Encode())
			if err != nil || !reflect.DeepEqual(back, s) {
				t.Fatalf("%x decoded to %+v, which re-encoded and decoded to %+v, err %v", b, s, back, err)
			}
		}
	})
}
