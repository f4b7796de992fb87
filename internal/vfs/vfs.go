// Package vfs provides the virtual file system the engine stores everything
// on: the write-ahead log, heap table files, index files, side-files and
// external-sort run files.
//
// Two implementations are provided. MemFS simulates stable storage with
// realistic crash semantics: writes go to a volatile buffer and only reach
// the durable image when Sync is called, so a simulated system failure
// (Crash) discards everything that was never forced. OSFS wraps the host
// file system for the runnable examples. All crash/restart experiments in
// the benchmark harness run on MemFS.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed file or file system.
var ErrClosed = errors.New("vfs: closed")

// ErrCrashed is returned by operations attempted after MemFS.Crash until the
// file system is reopened with Recover.
var ErrCrashed = errors.New("vfs: file system crashed")

// File is a random-access durable file.
//
// WriteAt and Truncate affect the volatile image immediately; the durable
// image only changes on Sync. ReadAt reads the volatile image (the OS page
// cache analogue): readers within one incarnation of the system see their
// own writes whether or not they have been forced.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Size returns the current (volatile) size of the file in bytes.
	Size() (int64, error)
	// Sync forces all volatile writes to the durable image.
	Sync() error
	// Truncate sets the volatile size of the file.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is a minimal file system interface: flat namespace of named files.
type FS interface {
	// Create creates or truncates the named file and opens it.
	Create(name string) (File, error)
	// Open opens an existing file for read/write.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Exists reports whether the named file exists.
	Exists(name string) (bool, error)
	// List returns the names of all files, sorted.
	List() ([]string, error)
}

// ---------------------------------------------------------------------------
// MemFS
// ---------------------------------------------------------------------------

// memFile holds a volatile and a durable byte image of one file. Sync
// copies only the dirty byte range, so forcing an append-only log is O(new
// bytes), not O(file) — without this, every commit would recopy the whole
// log and the engine would be quadratic in log size.
type memFile struct {
	name    string
	volatle []byte // current (page-cache) contents
	durable []byte // contents that survive a crash
	synced  bool   // whether the file's *existence* is durable
	dirtyLo int64  // dirty range [dirtyLo, dirtyHi) not yet synced
	dirtyHi int64
	shrunk  bool // a truncate happened since the last sync: full resync
}

const cleanLo = int64(1) << 62

func (f *memFile) markDirty(lo, hi int64) {
	if lo < f.dirtyLo {
		f.dirtyLo = lo
	}
	if hi > f.dirtyHi {
		f.dirtyHi = hi
	}
}

// MemFS is an in-memory file system with explicit crash semantics.
//
// Durability model:
//   - A newly created file exists only volatilely until its first Sync (this
//     models creating a file and crashing before the directory entry is
//     forced).
//   - WriteAt/Truncate modify the volatile image; Sync copies the volatile
//     image over the durable one.
//   - Crash discards every volatile image and every unsynced file. Recover
//     re-opens the durable state for a new incarnation.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	crashed bool
	gen     uint64 // incremented by Crash: handles from prior incarnations fail forever

	// Stats counts the simulated I/O operations, used by the experiment
	// harness to report I/O costs without real disks.
	stats IOStats

	// Simulated device costs (see SetLatency): a fixed per-operation
	// latency plus a transfer time per byte. Zero means instantaneous.
	opLatency time.Duration
	nsPerByte float64
}

// IOStats counts simulated I/O operations performed against a MemFS.
type IOStats struct {
	Reads      uint64 // ReadAt calls
	Writes     uint64 // WriteAt calls
	Syncs      uint64 // Sync calls
	BytesRead  uint64
	BytesWrite uint64
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// SetLatency configures a simulated storage device: every ReadAt/WriteAt
// sleeps opLatency plus len/bandwidth. The experiments that reproduce
// I/O-dominated claims (the paper's tables were measured against real 1992
// disks) opt in; the default is instantaneous storage. The sleep happens
// outside the file-system mutex, modelling independent parallel devices
// rather than one queue.
func (fs *MemFS) SetLatency(opLatency time.Duration, bytesPerSecond float64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.opLatency = opLatency
	if bytesPerSecond > 0 {
		fs.nsPerByte = 1e9 / bytesPerSecond
	} else {
		fs.nsPerByte = 0
	}
}

// simulate computes the delay for an n-byte transfer (called with fs.mu
// held; the caller sleeps after unlocking).
func (fs *MemFS) simulate(n int) time.Duration {
	return fs.opLatency + time.Duration(float64(n)*fs.nsPerByte)
}

// Stats returns a snapshot of the I/O counters.
func (fs *MemFS) Stats() IOStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// ResetStats zeroes the I/O counters.
func (fs *MemFS) ResetStats() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats = IOStats{}
}

// Crash simulates a system failure: all volatile state is lost. Files that
// were never synced disappear entirely; synced files revert to their last
// durable image. Until Recover is called, every operation fails with
// ErrCrashed, which catches code that accidentally holds on to pre-crash
// file handles.
func (fs *MemFS) Crash() { fs.crash(nil) }

// CrashTorn simulates a system failure while writes were in flight: for
// every file with unsynced bytes, persist(name, lo, hi) chooses a cut point
// in [lo, hi] and the bytes [lo, cut) reach the durable image even though
// they were never synced — a torn write. A file whose size shrank since its
// last sync keeps clean Crash semantics (the truncate stays volatile, the
// durable image is untouched). Files are visited in sorted name order, so a
// deterministic chooser produces a deterministic durable image; this is what
// makes fault-injection runs replayable from a seed.
func (fs *MemFS) CrashTorn(persist func(name string, lo, hi int64) int64) {
	fs.crash(persist)
}

func (fs *MemFS) crash(persist func(name string, lo, hi int64) int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = true
	fs.gen++
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fs.files[name]
		if persist != nil && !f.shrunk {
			fs.tearLocked(f, persist)
		}
		if !f.synced {
			delete(fs.files, name)
			continue
		}
		f.volatle = append([]byte(nil), f.durable...)
		f.dirtyLo, f.dirtyHi = cleanLo, 0
		f.shrunk = false
	}
}

// tearLocked persists a chooser-selected prefix of f's unsynced byte range
// to the durable image. For a file that was never synced the whole volatile
// image is in flight; persisting any of it also makes the file's existence
// durable (the directory entry reached the platter along with the data).
func (fs *MemFS) tearLocked(f *memFile, persist func(name string, lo, hi int64) int64) {
	lo, hi := f.dirtyLo, f.dirtyHi
	if !f.synced {
		lo, hi = 0, int64(len(f.volatle))
	}
	if hi > int64(len(f.volatle)) {
		hi = int64(len(f.volatle))
	}
	if lo >= hi {
		return
	}
	cut := persist(f.name, lo, hi)
	if cut < lo {
		cut = lo
	}
	if cut > hi {
		cut = hi
	}
	if cut == lo {
		return
	}
	if int64(len(f.durable)) < cut {
		f.durable = append(f.durable, make([]byte, cut-int64(len(f.durable)))...)
	}
	copy(f.durable[lo:cut], f.volatle[lo:cut])
	f.synced = true
}

// Recover ends the crashed state, making the durable images readable again.
// It models the new incarnation of the system mounting the disks.
func (fs *MemFS) Recover() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = false
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f := &memFile{name: name, dirtyLo: cleanLo}
	fs.files[name] = f
	return &memHandle{fs: fs, f: f, gen: fs.gen}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("vfs: open %s: %w", name, os.ErrNotExist)
	}
	return &memHandle{fs: fs, f: f, gen: fs.gen}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("vfs: remove %s: %w", name, os.ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

// Exists implements FS.
func (fs *MemFS) Exists(name string) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return false, ErrCrashed
	}
	_, ok := fs.files[name]
	return ok, nil
}

// List implements FS.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// memHandle is an open handle onto a memFile.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	gen    uint64
	closed bool
}

func (h *memHandle) check() error {
	if h.closed {
		return ErrClosed
	}
	if h.fs.crashed || h.gen != h.fs.gen {
		// Handles opened before a crash are fenced forever: the previous
		// incarnation of the system must not scribble on the recovered
		// disks (the real-world analogue is the dead machine's I/O never
		// reaching the storage array).
		return ErrCrashed
	}
	return nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	if err := h.check(); err != nil {
		h.fs.mu.Unlock()
		return 0, err
	}
	h.fs.stats.Reads++
	if off >= int64(len(h.f.volatle)) {
		h.fs.mu.Unlock()
		return 0, io.EOF
	}
	n := copy(p, h.f.volatle[off:])
	h.fs.stats.BytesRead += uint64(n)
	delay := h.fs.simulate(n)
	h.fs.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	if err := h.check(); err != nil {
		h.fs.mu.Unlock()
		return 0, err
	}
	h.fs.stats.Writes++
	end := off + int64(len(p))
	if end > int64(len(h.f.volatle)) {
		if end <= int64(cap(h.f.volatle)) {
			h.f.volatle = h.f.volatle[:end]
		} else {
			// Grow geometrically: an append-only log forces after every
			// commit, and linear growth would recopy the file each time.
			newCap := end * 2
			if newCap < 4096 {
				newCap = 4096
			}
			grown := make([]byte, end, newCap)
			copy(grown, h.f.volatle)
			h.f.volatle = grown
		}
	}
	copy(h.f.volatle[off:end], p)
	h.f.markDirty(off, end)
	h.fs.stats.BytesWrite += uint64(len(p))
	delay := h.fs.simulate(len(p))
	h.fs.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return len(p), nil
}

func (h *memHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	return int64(len(h.f.volatle)), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	h.fs.stats.Syncs++
	f := h.f
	switch {
	case f.shrunk || !f.synced:
		f.durable = append(f.durable[:0], f.volatle...)
	case f.dirtyLo < f.dirtyHi:
		if len(f.durable) < len(f.volatle) {
			f.durable = append(f.durable, make([]byte, len(f.volatle)-len(f.durable))...)
		}
		copy(f.durable[f.dirtyLo:f.dirtyHi], f.volatle[f.dirtyLo:f.dirtyHi])
	}
	f.shrunk = false
	f.dirtyLo, f.dirtyHi = cleanLo, 0
	f.synced = true
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	switch {
	case size < int64(len(h.f.volatle)):
		h.f.volatle = h.f.volatle[:size]
		h.f.shrunk = true
	case size > int64(len(h.f.volatle)):
		old := int64(len(h.f.volatle))
		grown := make([]byte, size)
		copy(grown, h.f.volatle)
		h.f.volatle = grown
		h.f.markDirty(old, size)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

func (h *memHandle) Name() string { return h.f.name }

// ---------------------------------------------------------------------------
// OSFS
// ---------------------------------------------------------------------------

// OSFS stores files in a directory of the host file system. It is used by
// the runnable examples so their databases are inspectable on disk; the
// crash experiments use MemFS because real power-loss cannot be simulated
// faithfully through the OS page cache.
type OSFS struct {
	dir string
}

// NewOSFS returns a file system rooted at dir, creating it if necessary.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &OSFS{dir: dir}, nil
}

func (fs *OSFS) path(name string) string { return filepath.Join(fs.dir, name) }

// Create implements FS.
func (fs *OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f, name: name}, nil
}

// Open implements FS.
func (fs *OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f, name: name}, nil
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error { return os.Remove(fs.path(name)) }

// Exists implements FS.
func (fs *OSFS) Exists(name string) (bool, error) {
	_, err := os.Stat(fs.path(name))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	return false, err
}

// List implements FS.
func (fs *OSFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

type osFile struct {
	f    *os.File
	name string
}

func (o *osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o *osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o *osFile) Close() error                             { return o.f.Close() }
func (o *osFile) Sync() error                              { return o.f.Sync() }
func (o *osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o *osFile) Name() string                             { return o.name }

func (o *osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
