// Package durable is the storage subsystem behind restart-surviving
// engines: a small pluggable Store interface (in-memory default,
// file-backed implementation in-tree, no external dependencies), a
// CRC-framed write-ahead log with clean torn-tail truncation, and the
// codecs for snapshot blobs and WAL records.
//
// The durability contract, end to end:
//
//   - A checkpoint is one atomically saved snapshot blob: the engine
//     epoch, a generation number, the engine clock, and — per part — the
//     part's ordinary wire encoding (byte-identical Marshal) plus the
//     version vector the wire format deliberately omits.
//   - Between checkpoints every applied mutation is appended to the
//     generation's WAL as a CRC-framed record carrying the events with
//     their final ticks, the part clock before the apply, and the
//     arrival-mutation version after it. Replay is idempotent: records
//     whose post-apply version the restored snapshot already covers are
//     skipped, so a WAL segment overlapping its checkpoint is harmless.
//   - Recovery loads the newest intact snapshot, replays the segments of
//     its generation and the next (at most those two can exist), and
//     resumes under the persisted epoch. A torn or CRC-failing WAL tail
//     truncates cleanly to the last intact frame; a snapshot or WAL
//     header that fails validation discards all durable state and starts
//     a fresh epoch — the existing cursor-invalidation path — rather
//     than serving corrupt state.
package durable

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrNotFound reports a blob that has never been saved (or was deleted).
var ErrNotFound = errors.New("durable: not found")

// Store is the pluggable persistence hook. Implementations must make Save
// atomic (a reader never observes a half-written blob) and durable on
// return; logs are append-only streams whose durability is explicit via
// Log.Sync. Two stores never share a namespace: each engine owns one
// Store (for FileStore, one directory).
//
// All methods must be safe for concurrent use.
type Store interface {
	// Load returns the blob's current contents, ErrNotFound if absent.
	Load(name string) ([]byte, error)
	// Save atomically replaces the blob and makes it durable before
	// returning (file-backed stores fsync, then rename into place).
	Save(name string, data []byte) error
	// Delete removes a blob or log; deleting an absent name is a no-op.
	Delete(name string) error
	// OpenLog opens an append-only log, creating it empty if missing.
	OpenLog(name string) (Log, error)
}

// Log is an append-only byte stream. Append buffers through the OS (or
// memory); Sync makes everything appended so far durable. Truncate
// discards a torn tail during recovery.
type Log interface {
	Append(p []byte) error
	Sync() error
	// ReadAll returns the log's full contents from the beginning.
	ReadAll() ([]byte, error)
	// Truncate discards everything past offset size.
	Truncate(size int64) error
	Close() error
}

// validName rejects names that would escape a file-backed store's
// directory; the engine only uses flat names ("snapshot", "wal-3", ...).
func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("durable: invalid blob name %q", name)
	}
	return nil
}

// MemStore is the dependency-free in-memory Store: durable exactly as
// long as the Store value lives, which is what tests and single-process
// restarts (engine rebuilt over the same MemStore) need.
type MemStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
	logs  map[string]*memLogData
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte), logs: make(map[string]*memLogData)}
}

func (m *MemStore) Load(name string) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[name]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), b...), nil
}

func (m *MemStore) Save(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[name] = append([]byte(nil), data...)
	return nil
}

func (m *MemStore) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, name)
	delete(m.logs, name)
	return nil
}

func (m *MemStore) OpenLog(name string) (Log, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.logs[name]
	if !ok {
		d = &memLogData{}
		m.logs[name] = d
	}
	return &memLog{data: d}, nil
}

// memLogData is the shared backing of a named in-memory log; handles from
// repeated OpenLog calls (engine restarts) all see it.
type memLogData struct {
	mu  sync.Mutex
	buf []byte
}

type memLog struct{ data *memLogData }

func (l *memLog) Append(p []byte) error {
	l.data.mu.Lock()
	defer l.data.mu.Unlock()
	l.data.buf = append(l.data.buf, p...)
	return nil
}

func (l *memLog) Sync() error { return nil }

func (l *memLog) ReadAll() ([]byte, error) {
	l.data.mu.Lock()
	defer l.data.mu.Unlock()
	return append([]byte(nil), l.data.buf...), nil
}

func (l *memLog) Truncate(size int64) error {
	l.data.mu.Lock()
	defer l.data.mu.Unlock()
	if size < 0 || size > int64(len(l.data.buf)) {
		return fmt.Errorf("durable: truncate %d out of range (log is %d bytes)", size, len(l.data.buf))
	}
	l.data.buf = l.data.buf[:size]
	return nil
}

func (l *memLog) Close() error { return nil }
