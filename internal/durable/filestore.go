package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FileStore is the file-backed Store: one flat directory, one file per
// blob or log, no dependencies beyond the standard library. Blob saves
// are crash-atomic — written to a temp file, fsynced, renamed into place,
// then the directory fsynced — so a reader (including recovery after a
// crash mid-save) always observes either the old or the new contents.
type FileStore struct {
	dir string
	// mu serializes blob saves per store so two concurrent Save calls for
	// one name can't interleave their temp-file lifecycles.
	mu sync.Mutex
}

// NewFileStore opens (creating if needed) the store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating store directory: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

func (f *FileStore) path(name string) string { return filepath.Join(f.dir, name) }

func (f *FileStore) Load(name string) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(f.path(name))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	return b, err
}

func (f *FileStore) Save(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	tmp := f.path(name + ".tmp")
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := file.Write(data); err != nil {
		file.Close()
		os.Remove(tmp)
		return err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		os.Remove(tmp)
		return err
	}
	if err := file.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, f.path(name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return f.syncDir()
}

// syncDir fsyncs the store directory so a rename (or remove) survives a
// crash; filesystems that reject directory fsync are tolerated.
func (f *FileStore) syncDir() error {
	d, err := os.Open(f.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

func (f *FileStore) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := os.Remove(f.path(name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return f.syncDir()
}

func (f *FileStore) OpenLog(name string) (Log, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	// O_APPEND keeps every write at the tail even across duplicate handles;
	// reads and truncation go through ReadAt/Truncate, which O_APPEND does
	// not restrict.
	file, err := os.OpenFile(f.path(name), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileLog{f: file}, nil
}

type fileLog struct {
	mu sync.Mutex
	f  *os.File
}

func (l *fileLog) Append(p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.f.Write(p)
	return err
}

func (l *fileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

func (l *fileLog) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, err := l.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (l *fileLog) ReadAll() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, err := l.f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size())
	n, err := l.f.ReadAt(buf, 0)
	if err != nil && n != len(buf) {
		return nil, err
	}
	return buf[:n], nil
}

func (l *fileLog) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Truncate(size)
}

func (l *fileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
