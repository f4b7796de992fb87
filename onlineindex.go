// Package onlineindex is a Go implementation of the online index build
// algorithms of C. Mohan and I. Narang, "Algorithms for Creating Indexes for
// Very Large Tables Without Quiescing Updates" (SIGMOD 1992): NSF (No
// Side-File) and SF (Side-File) index builds that run concurrently with
// inserts, deletes and updates, plus the offline baseline, restartable
// builds over a restartable external sort, pseudo-deleted key garbage
// collection, and multi-index builds in one table scan.
//
// The package is a facade over a small but complete storage engine built
// for the reproduction: write-ahead logging with ARIES-style restart
// recovery, a buffer pool, latches and a hierarchical lock manager, slotted
// heap tables, and a B+-tree index manager with pseudo-delete support.
//
// Quick start:
//
//	db, _ := onlineindex.Open(onlineindex.Config{})
//	db.CreateTable("orders", onlineindex.Schema{
//		{Name: "id", Kind: onlineindex.KindInt64},
//		{Name: "customer", Kind: onlineindex.KindString},
//	})
//	tx := db.Begin()
//	db.Insert(tx, "orders", onlineindex.Row{onlineindex.Int64(1), onlineindex.String("acme")})
//	tx.Commit()
//
//	// Build an index with the SF algorithm while updates continue:
//	res, _ := db.BuildIndex(onlineindex.IndexSpec{
//		Name: "by_customer", Table: "orders", Columns: []string{"customer"},
//		Method: onlineindex.SF,
//	}, onlineindex.BuildOptions{})
//	_ = res
package onlineindex

import (
	"onlineindex/internal/admin"
	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/core"
	"onlineindex/internal/engine"
	"onlineindex/internal/keyenc"
	"onlineindex/internal/metrics"
	"onlineindex/internal/partition"
	"onlineindex/internal/progress"
	"onlineindex/internal/txn"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

// BuildMethod selects the index build algorithm.
type BuildMethod = catalog.BuildMethod

// Build methods.
const (
	// Offline quiesces all updates for the duration of the build — the
	// behaviour of the systems the paper improves on.
	Offline = catalog.MethodOffline
	// NSF is the paper's No Side-File algorithm (§2): a short quiesce to
	// create the descriptor, then transactions maintain the index directly
	// while the builder inserts the sorted keys.
	NSF = catalog.MethodNSF
	// SF is the paper's Side-File algorithm (§3): no quiescing at all; the
	// builder loads the tree bottom-up while transactions append their
	// changes to a side-file that is applied at the end.
	SF = catalog.MethodSF
)

// Value kinds for schema columns.
const (
	KindInt64  = keyenc.KindInt64
	KindUint64 = keyenc.KindUint64
	KindString = keyenc.KindString
	KindBytes  = keyenc.KindBytes
)

// Value is one typed column value.
type Value = keyenc.Value

// Row is one table row.
type Row = engine.Row

// Value constructors.
var (
	Int64  = keyenc.Int64
	Uint64 = keyenc.Uint64
	String = keyenc.String
	Bytes  = keyenc.Bytes
	Null   = keyenc.Null
)

// Schema describes a table's columns.
type Schema = catalog.Schema

// Column is one schema column.
type Column = catalog.Column

// RID identifies a stored row.
type RID = types.RID

// Txn is a transaction handle.
type Txn = txn.Txn

// FS is the storage abstraction; MemFS simulates stable storage with crash
// semantics, OSFS stores files in a host directory.
type FS = vfs.FS

// NewMemFS returns an in-memory crash-simulating file system.
func NewMemFS() *vfs.MemFS { return vfs.NewMemFS() }

// NewOSFS returns a host-directory file system.
func NewOSFS(dir string) (*vfs.OSFS, error) { return vfs.NewOSFS(dir) }

// Config tunes a database instance.
type Config struct {
	// FS is the stable storage (nil: a fresh MemFS).
	FS FS
	// PoolSize is the buffer pool capacity in frames (default 1024).
	PoolSize int
	// DisableMetrics turns off the metrics registry and build progress
	// tracking; every instrumentation site degrades to a nil-handle no-op
	// (the configuration the overhead benchmark compares against).
	DisableMetrics bool
	// BufferShards is the buffer pool's page-table shard count (rounded up
	// to a power of two; 0 means min(16, GOMAXPROCS)). See README "Tuning
	// shard counts".
	BufferShards int
	// LockStripes is the lock manager's bucket-map stripe count (rounded up
	// to a power of two; 0 means min(16, GOMAXPROCS)).
	LockStripes int
}

// IndexSpec describes an index to build.
type IndexSpec struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Method  BuildMethod
}

// BuildOptions tunes a build; see core.Options for the fields and their
// defaults. ScanWorkers sets the number of parallel key-extraction workers
// in the staged scan pipeline (default 1 — serial); SortPartitions fans the
// sort's run generation out across independent sorters (default 1 —
// serial); MergeOverlap pipelines the run merge into the index load
// (default off). Keys have one format, prefix-delta runs and
// prefix-truncated pages, with no option (see the README's "Key format"
// note). The zero value is valid; out-of-range fields make the build fail
// with ErrInvalidBuildOptions.
type BuildOptions = core.Options

// ErrInvalidBuildOptions is wrapped by the error every build entry point
// returns for out-of-range BuildOptions; test with errors.Is.
var ErrInvalidBuildOptions = core.ErrInvalidOptions

// BuildResult reports a completed build.
type BuildResult = core.Result

// BuildStats is the per-build statistics block.
type BuildStats = core.Stats

// IndexInfo is a catalog index descriptor.
type IndexInfo = catalog.Index

// TableInfo is a catalog table descriptor.
type TableInfo = catalog.Table

// UniqueViolationError reports a genuine unique-key violation (during DML or
// a unique index build).
type UniqueViolationError = engine.UniqueViolationError

// GCResult summarizes a pseudo-deleted key cleanup pass.
type GCResult = btree.GCResult

// DB is a database handle. All DML and read methods route through the
// partition router: on plain tables the router is a pass-through; on
// partitioned logical tables it picks the shard(s).
type DB struct {
	eng *engine.DB
	rt  *partition.Router
}

func (cfg Config) engineConfig() engine.Config {
	return engine.Config{
		FS: cfg.FS, PoolSize: cfg.PoolSize, DisableMetrics: cfg.DisableMetrics,
		BufferShards: cfg.BufferShards, LockStripes: cfg.LockStripes,
	}
}

// Open creates a fresh database.
func Open(cfg Config) (*DB, error) {
	eng, err := engine.Open(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, rt: partition.NewRouter(eng)}, nil
}

// Recover reopens a database from the durable state on fs, running restart
// recovery (analysis, redo, undo). Interrupted online index builds are
// resumed from their last checkpoints before Recover returns.
func Recover(cfg Config) (*DB, error) {
	eng, err := engine.Recover(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	db := &DB{eng: eng, rt: partition.NewRouter(eng)}
	if _, err := core.ResumeAll(eng, core.Options{}); err != nil {
		return nil, err
	}
	// Fan-out builds interrupted mid-coordination: rebuild missing shards,
	// re-run the unique completion sweep, commit the logical index.
	if err := partition.FinishPending(eng, partition.BuildOptions{}); err != nil {
		return nil, err
	}
	if err := partition.RefreshStats(eng); err != nil {
		return nil, err
	}
	return db, nil
}

// RecoverWithoutResume runs restart recovery but leaves interrupted builds
// pending; PendingBuilds/ResumeBuild give the caller control over when the
// builders run (the crash/restart examples and experiments use this).
func RecoverWithoutResume(cfg Config) (*DB, error) {
	eng, err := engine.Recover(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, rt: partition.NewRouter(eng)}, nil
}

// Engine exposes the underlying engine for advanced use (experiment
// harnesses, statistics).
func (db *DB) Engine() *engine.DB { return db.eng }

// CreateTable creates a table.
func (db *DB) CreateTable(name string, schema Schema) (TableInfo, error) {
	return db.eng.CreateTable(name, schema)
}

// Partitioning schemes for CreatePartitionedTable.
const (
	// RangePartition routes rows by comparing the partitioning column
	// against the spec's upper-exclusive bounds; range scans led by the
	// partitioning column stay partition-ordered (no merge needed).
	RangePartition = catalog.SchemeRange
	// HashPartition routes rows by a hash of the partitioning column;
	// spreads any key distribution evenly, but range scans fan out.
	HashPartition = catalog.SchemeHash
)

// PartitionSpec describes how to split a logical table into shards.
type PartitionSpec = partition.Spec

// PartitionInfo is a logical partitioned table's descriptor.
type PartitionInfo = catalog.PartTable

// CreatePartitionedTable creates one logical table backed by
// spec.Partitions independent shard tables (each with its own heap file,
// free-space map, zone map, and index trees). All DML and read methods
// accept the logical name and route automatically; BuildIndex on the
// logical table fans out one build per shard under a global coordinator.
// See README "Partitioning a table".
func (db *DB) CreatePartitionedTable(name string, schema Schema, spec PartitionSpec) (PartitionInfo, error) {
	return partition.CreateTable(db.eng, name, schema, spec)
}

// PartitionedTable returns a logical partitioned table's descriptor.
func (db *DB) PartitionedTable(name string) (PartitionInfo, bool) {
	return db.eng.Catalog().PartTable(name)
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn { return db.eng.Begin() }

// Insert inserts a row, maintaining every visible index.
func (db *DB) Insert(tx *Txn, table string, row Row) (RID, error) {
	return db.rt.Insert(tx, table, row)
}

// Delete deletes a row by RID.
func (db *DB) Delete(tx *Txn, table string, rid RID) error {
	return db.rt.Delete(tx, table, rid)
}

// Update replaces a row in place when possible, relocating it otherwise;
// the returned RID is the row's (possibly new) identity.
func (db *DB) Update(tx *Txn, table string, rid RID, row Row) (RID, error) {
	return db.rt.Update(tx, table, rid, row)
}

// Get reads a row by RID under a share lock.
func (db *DB) Get(tx *Txn, table string, rid RID) (Row, bool, error) {
	return db.rt.Get(tx, table, rid)
}

// BuildIndex builds an index with the chosen algorithm, blocking until it
// completes. For the online methods (NSF, SF) other goroutines can keep
// updating the table throughout. On a partitioned logical table the build
// fans out one per-shard builder per partition (concurrently) under a
// coordinator that commits the logical index only when every shard
// completes; the returned result then carries a synthesized logical
// descriptor and the per-shard stats summed.
func (db *DB) BuildIndex(spec IndexSpec, opts BuildOptions) (*BuildResult, error) {
	espec := engine.CreateIndexSpec{
		Name: spec.Name, Table: spec.Table, Columns: spec.Columns,
		Unique: spec.Unique, Method: spec.Method,
	}
	if _, ok := db.eng.Catalog().PartTable(spec.Table); ok {
		pres, err := partition.Build(db.eng, espec, partition.BuildOptions{Options: opts})
		if err != nil {
			return nil, err
		}
		return &BuildResult{
			Index: catalog.Index{
				Name: spec.Name, Unique: spec.Unique,
				Method: spec.Method, State: catalog.StateComplete,
			},
			Stats: pres.Stats,
		}, nil
	}
	return core.Build(db.eng, espec, opts)
}

// BuildIndexes builds several indexes on one table in a single data scan
// (§6.2 of the paper).
func (db *DB) BuildIndexes(specs []IndexSpec, opts BuildOptions) ([]*BuildResult, error) {
	out := make([]engine.CreateIndexSpec, len(specs))
	for i, s := range specs {
		out[i] = engine.CreateIndexSpec{
			Name: s.Name, Table: s.Table, Columns: s.Columns,
			Unique: s.Unique, Method: s.Method,
		}
	}
	return core.BuildMany(db.eng, out, opts)
}

// CancelBuild aborts an in-progress index build (quiescing the table briefly
// to delete the descriptor, as §2.3.2 requires).
func (db *DB) CancelBuild(index string) error { return core.Cancel(db.eng, index) }

// DropIndex removes a complete index (for a partitioned logical index,
// every shard index plus the logical descriptor).
func (db *DB) DropIndex(index string) error {
	if _, ok := db.eng.Catalog().PartIndex(index); ok {
		return partition.Drop(db.eng, index)
	}
	return db.eng.DropIndex(index)
}

// GC garbage-collects the pseudo-deleted keys of an index (§2.2.4), using
// the Commit_LSN check and conditional instant locks to skip uncommitted
// deletions.
func (db *DB) GC(index string) (GCResult, error) { return core.GC(db.eng, index) }

// IndexLookup returns the RIDs matching a key in a complete index. With a
// transaction it is a committed read: an S record lock is held on each
// returned RID, and a hash fast path over the B+-tree serves repeated
// lookups without a tree descent (see README "Serving reads during a
// build"). A nil tx reads without locks (quiescent-point use only).
func (db *DB) IndexLookup(tx *Txn, index string, vals ...Value) ([]RID, error) {
	return db.rt.Lookup(tx, index, vals...)
}

// Lookup is IndexLookup under its natural name.
func (db *DB) Lookup(tx *Txn, index string, vals ...Value) ([]RID, error) {
	return db.rt.Lookup(tx, index, vals...)
}

// IndexScan streams a complete index's live entries in key order (nil
// bounds are open). With a transaction the scan is latch-coupled and
// batched — concurrent splits, DML and GC proceed between batches — and
// every returned entry is verified under an S record lock. A nil tx reads
// without locks.
func (db *DB) IndexScan(tx *Txn, index string, lo, hi []Value, fn func(key []byte, rid RID) bool) error {
	return db.rt.Scan(tx, index, lo, hi, fn)
}

// Scan is IndexScan under its natural name.
func (db *DB) Scan(tx *Txn, index string, lo, hi []Value, fn func(key []byte, rid RID) bool) error {
	return db.rt.Scan(tx, index, lo, hi, fn)
}

// Predicate restricts a SeqScan to rows whose column Col lies in [Lo, Hi]
// (nil bounds are open).
type Predicate = engine.Predicate

// SeqScan streams a table's rows matching pred in RID order, skipping page
// blocks whose zone-map summary excludes the predicate range. With a
// transaction each returned row is locked and re-verified; a nil tx reads
// without locks.
func (db *DB) SeqScan(tx *Txn, table string, pred *Predicate, fn func(rid RID, row Row) bool) error {
	return db.rt.SeqScan(tx, table, pred, fn)
}

// TableScan streams every live row in RID order.
func (db *DB) TableScan(table string, fn func(rid RID, row Row) error) error {
	return db.rt.TableScan(table, fn)
}

// CheckIndexConsistency verifies an index exactly reflects its table.
func (db *DB) CheckIndexConsistency(index string) error {
	return db.rt.CheckIndexConsistency(index)
}

// Index returns an index descriptor.
func (db *DB) Index(name string) (IndexInfo, bool) { return db.eng.Catalog().Index(name) }

// Checkpoint takes a fuzzy checkpoint (bounding restart recovery work).
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Crash simulates a system failure: every volatile structure is dropped,
// in-flight transactions are lost, and only forced state survives on the
// returned FS. Recover(Config{FS: fs}) brings the database back.
func (db *DB) Crash() FS { return db.eng.Crash() }

// Close flushes everything and shuts down cleanly.
func (db *DB) Close() error { return db.eng.Close() }

// MetricsSnapshot is a point-in-time copy of every engine instrument.
type MetricsSnapshot = metrics.Snapshot

// ProgressSnapshot is a point-in-time view of one build's progress and ETA.
type ProgressSnapshot = progress.Snapshot

// Metrics returns a snapshot of the engine's metrics registry (empty when
// Config.DisableMetrics was set).
func (db *DB) Metrics() MetricsSnapshot { return db.eng.Metrics().Snapshot() }

// BuildProgress returns a progress snapshot for every build the engine has
// tracked, running or complete (empty when metrics are disabled).
func (db *DB) BuildProgress() []ProgressSnapshot { return db.eng.ProgressSnapshots() }

// AdminServer is a running admin HTTP endpoint (see ServeAdmin).
type AdminServer = admin.Server

// ServeAdmin starts the read-only admin endpoint on addr ("127.0.0.1:0"
// picks a free port; the server's URL method reports it). It serves JSON
// snapshots of the metrics registry and every build's progress:
//
//	GET /          combined view with the side-file backlog
//	GET /metrics   the metrics snapshot
//	GET /progress  the build progress list
//
// Close the returned server when done.
func (db *DB) ServeAdmin(addr string) (*AdminServer, error) {
	return admin.Serve(addr, db.eng)
}

// PendingBuilds lists index builds interrupted by a crash (after
// RecoverWithoutResume).
func (db *DB) PendingBuilds() ([]engine.PendingBuild, error) { return db.eng.PendingBuilds() }

// ResumeBuild resumes one interrupted build.
func (db *DB) ResumeBuild(pb engine.PendingBuild, opts BuildOptions) (*BuildResult, error) {
	return core.Resume(db.eng, pb, opts)
}
