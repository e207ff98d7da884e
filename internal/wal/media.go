package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"aqua/internal/node"
)

// Media is the durable surface a Store writes to: one snapshot cell and one
// append-only log. Implementations must make AppendLog and StoreSnapshot
// durable before returning (the store's frontier guarantee — durable CSN ≥
// applied CSN — rests on it).
type Media interface {
	// LoadSnapshot returns the snapshot cell (nil when never written).
	LoadSnapshot() ([]byte, error)
	// StoreSnapshot atomically replaces the snapshot cell.
	StoreSnapshot(b []byte) error
	// LoadLog returns the full log image.
	LoadLog() ([]byte, error)
	// AppendLog durably appends b to the log.
	AppendLog(b []byte) error
	// ResetLog truncates the log to empty (after a snapshot subsumed it).
	ResetLog() error
	// Syncs reports how many durability barriers (fsync or the in-memory
	// equivalent) the media has performed — the WAL-fsync metric's source.
	Syncs() uint64
}

// MemMedia is the simulator's media: plain byte slices that survive a node
// restart because the deployment's registry (see Registry) outlives the
// crashed gateway instance. All operations are synchronous function calls —
// no scheduler events, no rand draws — so enabling durability leaves
// virtual-time execution byte-identical.
//
// MemMedia doubles as the crash-point injection surface: FailAfter bounds
// how many log bytes become durable, so the append that crosses the bound
// lands as a torn write and fails — the writer "died" inside it — and the
// adversarial tests rewrite Log/SetLog images to plant corruption between
// incarnations.
type MemMedia struct {
	snapshot []byte
	log      []byte
	syncs    uint64

	// failAfter, when >= 0, caps the durable log length: append bytes
	// beyond it are dropped (the crash-point injection knob). -1 is off.
	failAfter int
}

// ErrTornWrite is what MemMedia.AppendLog returns for an append that
// crossed the FailAfter bound: only a prefix of it is on the media.
var ErrTornWrite = errors.New("wal: injected torn write")

// NewMemMedia returns an empty in-memory media.
func NewMemMedia() *MemMedia { return &MemMedia{failAfter: -1} }

// LoadSnapshot implements Media.
func (m *MemMedia) LoadSnapshot() ([]byte, error) { return m.snapshot, nil }

// StoreSnapshot implements Media.
func (m *MemMedia) StoreSnapshot(b []byte) error {
	m.snapshot = append(m.snapshot[:0:0], b...)
	m.syncs++
	return nil
}

// LoadLog implements Media.
func (m *MemMedia) LoadLog() ([]byte, error) { return m.log, nil }

// AppendLog implements Media.
func (m *MemMedia) AppendLog(b []byte) error {
	if m.failAfter >= 0 {
		room := m.failAfter - len(m.log)
		if room < 0 {
			room = 0
		}
		if len(b) > room {
			// Torn write: the prefix lands, the rest never reaches the
			// platter, and the append never completes. The simulator cannot
			// kill a node inside a callback, so the writer is told instead
			// and fail-stops — nothing the append covered becomes visible,
			// exactly as if the process had died here.
			m.log = append(m.log, b[:room]...)
			return ErrTornWrite
		}
	}
	m.log = append(m.log, b...)
	m.syncs++
	return nil
}

// ResetLog implements Media.
func (m *MemMedia) ResetLog() error {
	m.log = m.log[:0]
	return nil
}

// Syncs implements Media.
func (m *MemMedia) Syncs() uint64 { return m.syncs }

// FailAfter caps the durable log at n total bytes: the append that crosses
// the boundary is torn there and returns ErrTornWrite. n < 0 disables the
// injection.
func (m *MemMedia) FailAfter(n int) { m.failAfter = n }

// Log returns the raw log image (test inspection).
func (m *MemMedia) Log() []byte { return m.log }

// SetLog replaces the raw log image (test corruption injection).
func (m *MemMedia) SetLog(b []byte) { m.log = append(m.log[:0:0], b...) }

// Registry hands each replica ID a stable MemMedia that survives process
// restarts within one simulation: the deployment owns the registry, gateway
// incarnations come and go. Wipe models a disk loss (the legacy state-loss
// restart keeps its semantics by wiping before rebuilding).
type Registry struct {
	media map[node.ID]*MemMedia
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{media: make(map[node.ID]*MemMedia)} }

// Get returns id's media, creating it on first use.
func (r *Registry) Get(id node.ID) *MemMedia {
	m, ok := r.media[id]
	if !ok {
		m = NewMemMedia()
		r.media[id] = m
	}
	return m
}

// Wipe discards id's durable state: the next Get starts empty.
func (r *Registry) Wipe(id node.ID) { delete(r.media, id) }

// FileMedia stores the snapshot cell and log as two files in a directory —
// the live deployment's (cmd/aquad) media. Appends write-then-fsync; the
// snapshot cell is replaced via write-to-temp + rename + directory fsync.
type FileMedia struct {
	dir string

	mu    sync.Mutex
	logF  *os.File
	syncs uint64
}

// NewFileMedia opens (creating if needed) a file-backed media rooted at dir.
func NewFileMedia(dir string) (*FileMedia, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: media dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &FileMedia{dir: dir, logF: f}, nil
}

// Close releases the log file handle.
func (m *FileMedia) Close() error { return m.logF.Close() }

func (m *FileMedia) snapshotPath() string { return filepath.Join(m.dir, "snapshot") }

// LoadSnapshot implements Media.
func (m *FileMedia) LoadSnapshot() ([]byte, error) {
	b, err := os.ReadFile(m.snapshotPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	return b, err
}

// StoreSnapshot implements Media.
func (m *FileMedia) StoreSnapshot(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tmp := m.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, m.snapshotPath()); err != nil {
		return err
	}
	m.syncs++
	return syncDir(m.dir)
}

// LoadLog implements Media.
func (m *FileMedia) LoadLog() ([]byte, error) {
	return os.ReadFile(filepath.Join(m.dir, "wal.log"))
}

// AppendLog implements Media.
func (m *FileMedia) AppendLog(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.logF.Write(b); err != nil {
		return err
	}
	m.syncs++
	return m.logF.Sync()
}

// ResetLog implements Media.
func (m *FileMedia) ResetLog() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.logF.Truncate(0); err != nil {
		return err
	}
	_, err := m.logF.Seek(0, 0)
	return err
}

// Syncs implements Media.
func (m *FileMedia) Syncs() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
