// Package engine assembles the substrates — VFS, WAL, buffer pool, lock
// manager, heap tables, B+-tree indexes, side-files, transactions, restart
// recovery — into a small database engine, and implements the transaction
// side of the paper's two online index build algorithms:
//
//   - the Fig. 1 forward-processing logic (count visible indexes under the
//     data page latch; route changes for an SF-building index to its
//     side-file iff Target-RID < Current-RID; maintain all other visible
//     indexes directly with the NSF duplicate/pseudo-delete rules);
//   - the Fig. 2 rollback logic (compare the visible-index count in the data
//     page log record with the current count and compensate indexes that
//     became visible in between);
//   - the unique-index conflict-resolution protocol (§2.2.3): lock the
//     competing records in share mode, re-verify, and either reactivate,
//     replace the RID of a terminated pseudo entry, or fail.
//
// The index builders themselves live in package core; the engine exposes the
// BuildCtl handshake they share with transactions.
package engine

import (
	"fmt"
	"sync"

	"onlineindex/internal/btree"
	"onlineindex/internal/buffer"
	"onlineindex/internal/catalog"
	"onlineindex/internal/heap"
	"onlineindex/internal/lock"
	"onlineindex/internal/metrics"
	"onlineindex/internal/progress"
	"onlineindex/internal/readcache"
	"onlineindex/internal/sidefile"
	"onlineindex/internal/txn"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/wal"
	"onlineindex/internal/zonemap"
)

// Config tunes a DB.
type Config struct {
	// FS is the stable storage; nil means a fresh MemFS.
	FS vfs.FS
	// PoolSize is the buffer pool capacity in frames (default 1024).
	PoolSize int
	// TreeBudget caps index node size in bytes (tests use small values to
	// force deep trees); 0 means the page size.
	TreeBudget int
	// DisableMetrics turns off the metrics registry: every subsystem gets
	// nil instrument handles, whose methods are no-ops (the overhead
	// benchmark compares the two modes).
	DisableMetrics bool
	// BufferShards is the buffer pool's page-table shard count (rounded up
	// to a power of two). 0 means min(16, GOMAXPROCS). The deterministic
	// fault-injection sweep pins it to 1 so I/O schedules replay unchanged.
	BufferShards int
	// LockStripes is the lock manager's bucket-map stripe count (rounded up
	// to a power of two). 0 means min(16, GOMAXPROCS); the fault sweep pins
	// it to 1.
	LockStripes int
}

// DB is the engine instance.
type DB struct {
	fs   vfs.FS
	log  *wal.Log
	pool *buffer.Pool
	lock *lock.Manager
	txns *txn.Manager
	cat  *catalog.Catalog
	cfg  Config

	// met is the engine-wide metrics registry; nil when Config.DisableMetrics
	// is set (nil registries hand out nil no-op instrument handles).
	met *metrics.Registry

	mu     sync.Mutex
	tables map[types.TableID]*heap.Table
	trees  map[types.IndexID]*btree.Tree
	// treeFiles maps each open tree's index file back to its index ID, so
	// the undo path (which only has a log record's PageID) can invalidate
	// read caches without scanning every tree.
	treeFiles map[types.FileID]types.IndexID
	sfiles    map[types.IndexID]*sidefile.File
	builds    map[types.IndexID]*BuildCtl
	// progs holds one progress tracker per in-flight (or just-finished)
	// index build, registered by the builders in package core.
	progs map[types.IndexID]*progress.Tracker
	// progGroups holds named snapshot closures that aggregate several
	// builds into one logical progress view (the partition coordinator
	// registers one per fan-out index build).
	progGroups map[string]func() progress.Snapshot
	// lastIBCkpt holds each building index's latest committed builder
	// checkpoint payload, included in fuzzy checkpoints so restart can find
	// it without scanning the whole log.
	lastIBCkpt map[types.IndexID][]byte
	// rcaches holds each readable index's hash point-lookup cache, created
	// lazily on first read. Memory-only: restart starts cold.
	rcaches map[types.IndexID]*readcache.Cache
	// zmaps holds each table's zone-map sidecar. Memory-only: restart starts
	// with every block unknown, so stale pruning after recovery is impossible.
	zmaps map[types.TableID]*zonemap.Map

	crashed bool
}

// Open creates a fresh database on cfg.FS. Use Recover to reopen one that
// has existing state.
func Open(cfg Config) (*DB, error) {
	if cfg.FS == nil {
		cfg.FS = vfs.NewMemFS()
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 1024
	}
	log, err := wal.Open(cfg.FS)
	if err != nil {
		return nil, err
	}
	var reg *metrics.Registry
	if !cfg.DisableMetrics {
		reg = metrics.New()
	}
	db := &DB{
		fs:         cfg.FS,
		log:        log,
		pool:       buffer.NewSharded(cfg.FS, log, cfg.PoolSize, cfg.BufferShards),
		lock:       lock.NewManagerStriped(cfg.LockStripes),
		cat:        catalog.New(),
		cfg:        cfg,
		met:        reg,
		tables:     make(map[types.TableID]*heap.Table),
		trees:      make(map[types.IndexID]*btree.Tree),
		treeFiles:  make(map[types.FileID]types.IndexID),
		sfiles:     make(map[types.IndexID]*sidefile.File),
		builds:     make(map[types.IndexID]*BuildCtl),
		progs:      make(map[types.IndexID]*progress.Tracker),
		progGroups: make(map[string]func() progress.Snapshot),
		lastIBCkpt: make(map[types.IndexID][]byte),
		rcaches:    make(map[types.IndexID]*readcache.Cache),
		zmaps:      make(map[types.TableID]*zonemap.Map),
	}
	db.log.SetMetrics(wal.MetricsFrom(reg))
	db.pool.SetMetrics(buffer.MetricsFrom(reg, db.pool.Shards()))
	db.lock.SetMetrics(lock.MetricsFrom(reg, db.lock.Stripes()))
	db.txns = txn.NewManager(log, db.lock)
	db.txns.SetDispatcher(db)
	return db, nil
}

// Metrics returns the engine-wide metrics registry (nil when disabled).
func (db *DB) Metrics() *metrics.Registry { return db.met }

// RegisterProgress installs the progress tracker of an index build. The
// builders call it at build start and at resume; a second registration for
// the same index replaces the first (a resumed build starts a fresh tracker
// seeded from the durable checkpoint).
func (db *DB) RegisterProgress(id types.IndexID, tr *progress.Tracker) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.progs[id] = tr
}

// DropProgress forgets a build's tracker (e.g. after a cancelled build; a
// completed build's tracker is kept so its terminal fraction==1 snapshot
// stays observable).
func (db *DB) DropProgress(id types.IndexID) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.progs, id)
}

// ProgressOf returns the progress tracker of an index build, or nil. All
// tracker methods are nil-safe, so callers may use the result unchecked.
func (db *DB) ProgressOf(id types.IndexID) *progress.Tracker {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.progs[id]
}

// RegisterProgressGroup installs a named aggregate progress view (one
// snapshot summarizing several shard builds). Re-registering a name
// replaces the previous closure.
func (db *DB) RegisterProgressGroup(name string, fn func() progress.Snapshot) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.progGroups[name] = fn
}

// DropProgressGroup forgets an aggregate progress view.
func (db *DB) DropProgressGroup(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.progGroups, name)
}

// ProgressSnapshots returns a snapshot of every registered build tracker
// followed by every registered aggregate group view, in unspecified order.
func (db *DB) ProgressSnapshots() []progress.Snapshot {
	db.mu.Lock()
	trs := make([]*progress.Tracker, 0, len(db.progs))
	for _, tr := range db.progs {
		trs = append(trs, tr)
	}
	fns := make([]func() progress.Snapshot, 0, len(db.progGroups))
	for _, fn := range db.progGroups {
		fns = append(fns, fn)
	}
	db.mu.Unlock()
	out := make([]progress.Snapshot, 0, len(trs)+len(fns))
	for _, tr := range trs {
		out = append(out, tr.Snapshot())
	}
	for _, fn := range fns {
		out = append(out, fn())
	}
	return out
}

// FS returns the underlying stable storage.
func (db *DB) FS() vfs.FS { return db.fs }

// Log returns the write-ahead log (stats and forced reads for the harness).
func (db *DB) Log() *wal.Log { return db.log }

// Pool returns the buffer pool.
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Locks returns the lock manager.
func (db *DB) Locks() *lock.Manager { return db.lock }

// Catalog returns the catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Txns returns the transaction manager.
func (db *DB) Txns() *txn.Manager { return db.txns }

// Begin starts a transaction.
func (db *DB) Begin() *txn.Txn { return db.txns.Begin() }

// heapOf returns the heap handle of a table.
func (db *DB) heapOf(id types.TableID) (*heap.Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[id]
	if !ok {
		return nil, fmt.Errorf("engine: no open heap for table %d", id)
	}
	return t, nil
}

// HeapOf exposes a table's heap handle to the index builders, which drive
// the page-at-a-time scan themselves to manage their scan position.
func (db *DB) HeapOf(id types.TableID) (*heap.Table, error) { return db.heapOf(id) }

// TreeOf returns the B+-tree of an index (exported for the builders and the
// verification harness).
func (db *DB) TreeOf(id types.IndexID) (*btree.Tree, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.trees[id]
	if !ok {
		return nil, fmt.Errorf("engine: no open tree for index %d", id)
	}
	return t, nil
}

// SideFileOf returns the side-file of an SF-building index.
func (db *DB) SideFileOf(id types.IndexID) (*sidefile.File, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sf, ok := db.sfiles[id]
	if !ok {
		return nil, fmt.Errorf("engine: no side-file for index %d", id)
	}
	return sf, nil
}

// BuildCtlOf returns the build control of an index, or nil when no build is
// registered.
func (db *DB) BuildCtlOf(id types.IndexID) *BuildCtl {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.builds[id]
}

// RegisterBuild installs build control state (called by the builder before
// the descriptor becomes visible, and by recovery when it finds an
// interrupted build).
func (db *DB) RegisterBuild(ctl *BuildCtl) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.builds[ctl.Index] = ctl
}

// UnregisterBuild removes build control state after completion or cancel.
func (db *DB) UnregisterBuild(id types.IndexID) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.builds, id)
}

// NoteIBCheckpoint records the latest committed builder checkpoint payload
// for inclusion in fuzzy checkpoints.
func (db *DB) NoteIBCheckpoint(id types.IndexID, payload []byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.lastIBCkpt[id] = append([]byte(nil), payload...)
}

// LastIBState returns the latest committed builder checkpoint for an index,
// or nil. The crash experiments use it to aim failures at specific build
// phases.
func (db *DB) LastIBState(id types.IndexID) *IBState {
	db.mu.Lock()
	b := db.lastIBCkpt[id]
	db.mu.Unlock()
	if b == nil {
		return nil
	}
	st, err := DecodeIBState(b)
	if err != nil {
		return nil
	}
	return &st
}

// DropIBCheckpoint forgets builder state after build completion.
func (db *DB) DropIBCheckpoint(id types.IndexID) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.lastIBCkpt, id)
}

// Crash simulates a system failure: every volatile structure is dropped and
// only forced state survives on the FS. The DB is unusable afterwards;
// Recover(fs) brings up a new incarnation.
func (db *DB) Crash() vfs.FS {
	db.mu.Lock()
	db.crashed = true
	db.mu.Unlock()
	if mem, ok := db.fs.(*vfs.MemFS); ok {
		mem.Crash()
		mem.Recover() // disks come back; volatile contents are gone
	}
	return db.fs
}

// Close flushes everything and closes files (clean shutdown).
func (db *DB) Close() error {
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.log.ForceAll(); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	return db.pool.Close()
}
