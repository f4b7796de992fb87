package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onlineindex/internal/vfs"
)

// ioCounts is the I/O one file (or one class of files) has seen through the
// timing decorator.
type ioCounts struct {
	WriteCalls, WriteBytes, WriteNs uint64
	ReadCalls, ReadBytes, ReadNs    uint64
	SyncCalls                       uint64
}

func (c *ioCounts) add(o ioCounts) {
	c.WriteCalls += o.WriteCalls
	c.WriteBytes += o.WriteBytes
	c.WriteNs += o.WriteNs
	c.ReadCalls += o.ReadCalls
	c.ReadBytes += o.ReadBytes
	c.ReadNs += o.ReadNs
	c.SyncCalls += o.SyncCalls
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{
		c.WriteCalls - o.WriteCalls, c.WriteBytes - o.WriteBytes, c.WriteNs - o.WriteNs,
		c.ReadCalls - o.ReadCalls, c.ReadBytes - o.ReadBytes, c.ReadNs - o.ReadNs,
		c.SyncCalls - o.SyncCalls,
	}
}

type fileCounters struct {
	writeCalls, writeBytes, writeNs atomic.Uint64
	readCalls, readBytes, readNs    atomic.Uint64
	syncCalls                       atomic.Uint64
}

func (c *fileCounters) load() ioCounts {
	return ioCounts{
		c.writeCalls.Load(), c.writeBytes.Load(), c.writeNs.Load(),
		c.readCalls.Load(), c.readBytes.Load(), c.readNs.Load(),
		c.syncCalls.Load(),
	}
}

// timingFS decorates a vfs.FS with per-file call, byte and time counters. It
// is how the traced run sees the vfs layer from outside: the engine is
// handed the decorator in place of the real file system. While disabled it
// forwards reads and writes untouched, which is what the untraced runs and
// the trace-overhead comparison run against.
//
// In both states it elides fsync: Sync is counted and returns without
// reaching the file. The benchmark's numbers are this sandbox's system calls
// and copies through the page cache, not a device's, and on a journalling
// file system the engine's flushes (one per evicted page, one per commit)
// are both most of a build's wall clock and the part that swings from run to
// run with whatever else the host's disk is doing. The flush policy is the
// same on both sides of any comparison, and what a change does to the
// number of flushes shows in vfs.sync_calls and wal.forces. A crash in the
// benchmark is a process kill (the page cache survives), so nothing depends
// on the flushes for correctness.
type timingFS struct {
	inner   vfs.FS
	enabled atomic.Bool

	mu    sync.Mutex
	files map[string]*fileCounters
	// class maps a page file name (heap, tree and side-files all look like
	// f000007.dat) to its class, told to the decorator by the benchmark as
	// the catalog hands the file IDs out.
	class map[string]string
}

func newTimingFS(inner vfs.FS, enabled bool) *timingFS {
	t := &timingFS{inner: inner, files: make(map[string]*fileCounters), class: make(map[string]string)}
	t.enabled.Store(enabled)
	return t
}

func (t *timingFS) counters(name string) *fileCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.files[name]
	if !ok {
		c = &fileCounters{}
		t.files[name] = c
	}
	return c
}

// setClass records that the named page file belongs to class.
func (t *timingFS) setClass(name, class string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.class[name] = class
}

// ioClasses are the file classes the ledger reports.
var ioClasses = []string{"wal", "heap", "run", "tree", "side"}

// byClass sums the counters per file class; "all" holds the grand total.
// Page files nobody classified count as side-files: the benchmark registers
// every heap and tree file it causes, and the side-file is what remains.
func (t *timingFS) byClass() map[string]ioCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]ioCounts)
	for name, fc := range t.files {
		c := fc.load()
		cls := t.class[name]
		switch {
		case cls != "":
		case strings.HasPrefix(name, "wal."): // wal.log and wal.master
			cls = "wal"
		case strings.Contains(name, "-run-"):
			cls = "run"
		default:
			cls = "side"
		}
		sum := out[cls]
		sum.add(c)
		out[cls] = sum
		all := out["all"]
		all.add(c)
		out["all"] = all
	}
	return out
}

func (t *timingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, c: t.counters(f.Name())}, nil
}

func (t *timingFS) Create(name string) (vfs.File, error) { return t.wrap(t.inner.Create(name)) }
func (t *timingFS) Open(name string) (vfs.File, error)   { return t.wrap(t.inner.Open(name)) }
func (t *timingFS) Remove(name string) error             { return t.inner.Remove(name) }
func (t *timingFS) Exists(name string) (bool, error)     { return t.inner.Exists(name) }
func (t *timingFS) List() ([]string, error)              { return t.inner.List() }

type timingFile struct {
	vfs.File
	fs *timingFS
	c  *fileCounters
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.fs.enabled.Load() {
		return f.File.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.c.readNs.Add(uint64(time.Since(t0)))
	f.c.readCalls.Add(1)
	f.c.readBytes.Add(uint64(n))
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.fs.enabled.Load() {
		return f.File.WriteAt(p, off)
	}
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.c.writeNs.Add(uint64(time.Since(t0)))
	f.c.writeCalls.Add(1)
	f.c.writeBytes.Add(uint64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	if f.fs.enabled.Load() {
		f.c.syncCalls.Add(1)
	}
	return nil
}

// AdviseSequential forwards the sort's readahead hint, which the engine
// offers to any file that accepts it; hiding it would make the traced run
// read its runs differently from the untraced one.
func (f *timingFile) AdviseSequential() { vfs.Advise(f.File) }
