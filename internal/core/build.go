// Package core implements the paper's contribution: building a B+-tree
// index on a table without quiescing updates, by the NSF (No Side-File,
// §2) and SF (Side-File, §3) algorithms, plus the offline baseline the
// paper's introduction criticizes (quiesce updates for the whole build).
//
// Both online algorithms share the pipeline
//
//	scan data pages (share-latching only, no locks)
//	  → restartable sort (tournament tree, run files, checkpoints)
//	  → restartable merge feeding the index
//	  → completion,
//
// and checkpoint their progress in TypeIBCheckpoint log records committed by
// the builder's rotating transaction, so a system failure loses at most one
// checkpoint interval of work (§2.2.3, §3.2.4, §5). Resume continues an
// interrupted build from its last checkpoint after restart recovery.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/enc"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/harness"
	"onlineindex/internal/lock"
	"onlineindex/internal/progress"
	"onlineindex/internal/txn"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/wal"
)

// Options tunes an index build. The zero value of every field means "use
// the documented default"; Validate rejects values that are out of range
// (negative counts, an impossible fill factor) instead of silently
// clamping them.
type Options struct {
	// SortMemory is the tournament-tree capacity in keys.
	// Default 4096; minimum 2 (replacement selection needs a tournament).
	SortMemory int
	// FillFactor is the bottom-up loader's node fill fraction, in (0, 1].
	// Default 0.9.
	FillFactor float64
	// CheckpointPages: take a scan-phase checkpoint every N data pages.
	// Default 0: no mid-scan checkpoints.
	CheckpointPages int
	// CheckpointKeys: take an insert/load-phase checkpoint every N keys.
	// Default 0: no mid-insert checkpoints.
	CheckpointKeys int
	// BatchSize is the NSF multi-key insert batch. Default 64.
	BatchSize int
	// ScanWorkers is the number of parallel key-extraction workers in the
	// staged scan pipeline (see pipeline.go). Default 1: extraction runs
	// inline on the scan goroutine. At any worker count the page visit and
	// the sorter feed stay in strict page order, so the SF Current-RID
	// invariant (§3.2.2) and the scan checkpoints are unaffected; workers
	// only spread the key extraction between the two serial stages.
	ScanWorkers int
	// SortPartitions fans run generation out over N independent
	// replacement-selection sorters, fed round-robin by page from the
	// in-order feed (partition.go in extsort). SortMemory is split across
	// the partitions, each emits its own run stream under a disjoint file
	// prefix, and the merge simply sees a wider set of inputs — §5.2's
	// per-stream counter vector makes a wide merge exactly as restartable
	// as a narrow one. Default 1: the serial sorter with today's I/O
	// sequence, op for op. With SerialFinish set, the partitions are fed
	// inline on the scan goroutine (same runs and checkpoints,
	// deterministic I/O order for the fault-injection harness).
	SortPartitions int
	// MergeOverlap hands merged keys to the bottom-up loader through a
	// small bounded buffer so the final merge runs concurrently with leaf
	// construction — §2.2.2's "the final merge phase of sort can be
	// performed as keys are being inserted into the index". Checkpoints
	// are taken only at batch hand-off points, where the merge-counter
	// vector and the loader position form a consistent pair. Applies to
	// the SF load phase (non-unique indexes; the unique path's held-back
	// dup verification needs the serial loop) and the offline baseline.
	// With SerialFinish set, produce and consume alternate on one
	// goroutine — identical batches and checkpoints, deterministic I/O.
	MergeOverlap bool
	// SortSideFile applies the side-file sorted ("for improved performance,
	// IB could sort the entries of the side-file, without modifying the
	// relative positions of the identical keys", §3.2.5). The tail appended
	// during the sorted pass is still processed sequentially.
	SortSideFile bool
	// GCAfterBuild schedules a pseudo-deleted key cleanup pass after an NSF
	// build (§2.2.4).
	GCAfterBuild bool
	// OnCheckpoint, when set, is called after every committed builder
	// checkpoint, on the builder's goroutine with no page latches or builder
	// transaction in flight. The fault-injection sweep uses it to interleave
	// scripted DML with the build at deterministic points; a non-nil error
	// aborts the build. The phase argument tells the script where the build
	// is (scan, insert, load, side-file catch-up).
	OnCheckpoint func(phase engine.IBPhase) error
	// SerialFinish makes BuildMany run its per-index finish phases (merge,
	// load, side-file catch-up) sequentially in spec order instead of
	// spawning one goroutine per index. Real builds want the concurrency
	// (§6.2: "a process can be spawned for each index"); the deterministic
	// fault-injection harness needs a single-goroutine I/O order.
	SerialFinish bool
}

// ErrInvalidOptions tags every option-validation failure, so callers can
// errors.Is for the whole class.
var ErrInvalidOptions = errors.New("core: invalid build options")

// Validate rejects option values that are out of range. Zero values are
// valid everywhere (they select the documented defaults).
func (o Options) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrInvalidOptions}, args...)...)
	}
	if o.SortMemory < 0 {
		return fail("SortMemory %d is negative", o.SortMemory)
	}
	if o.SortMemory == 1 {
		return fail("SortMemory 1: replacement selection needs a tournament of >= 2 keys")
	}
	if o.FillFactor < 0 || o.FillFactor > 1 {
		return fail("FillFactor %v is outside (0, 1]", o.FillFactor)
	}
	if o.CheckpointPages < 0 {
		return fail("CheckpointPages %d is negative", o.CheckpointPages)
	}
	if o.CheckpointKeys < 0 {
		return fail("CheckpointKeys %d is negative", o.CheckpointKeys)
	}
	if o.BatchSize < 0 {
		return fail("BatchSize %d is negative", o.BatchSize)
	}
	if o.ScanWorkers < 0 {
		return fail("ScanWorkers %d is negative", o.ScanWorkers)
	}
	if o.SortPartitions < 0 {
		return fail("SortPartitions %d is negative", o.SortPartitions)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.SortMemory == 0 {
		o.SortMemory = 4096
	}
	if o.FillFactor == 0 {
		o.FillFactor = 0.9
	}
	if o.BatchSize == 0 {
		o.BatchSize = 64
	}
	if o.ScanWorkers == 0 {
		o.ScanWorkers = 1
	}
	if o.SortPartitions == 0 {
		o.SortPartitions = 1
	}
	return o
}

// Stats reports what a build did.
type Stats struct {
	Method          catalog.BuildMethod
	PagesScanned    uint64
	KeysExtracted   uint64
	KeysInserted    uint64
	KeysSkipped     uint64 // duplicates rejected (races IB lost)
	SideFileLen     uint64 // entries the side-file accumulated (SF)
	SideFileApplied uint64
	Checkpoints     uint64
	Runs            int    // sorted runs produced
	BytesSpilled    uint64 // run-file bytes written by the sort (prefix-delta encoded)
	ScanSort        time.Duration
	Insert          time.Duration // key insertion / bottom-up load
	SideFile        time.Duration // side-file processing (SF)
	QuiesceWait     time.Duration // time spent waiting to quiesce (NSF DDL / offline)
	// Pipeline breaks the scan phase down by pipeline stage (prefetch /
	// extraction / sorter feed) so ScanSort's wall clock stays explainable
	// when extraction fans out over Options.ScanWorkers.
	Pipeline harness.PipelineStats
	GC       struct {
		Collected, Skipped int
	}
}

// Result of a completed build.
type Result struct {
	Index catalog.Index
	Stats Stats
}

// ErrBuildCancelled is returned when a unique violation (or explicit cancel)
// aborts the build: "the index-build operation is abnormally terminated
// since a unique index cannot be built on this table" (§2.2.3).
var ErrBuildCancelled = errors.New("core: index build cancelled")

// builder carries one build's state.
type builder struct {
	db   *engine.DB
	ix   catalog.Index
	tbl  catalog.Table
	opts Options
	ctl  *engine.BuildCtl
	tx   *txn.Txn // rotating builder transaction, committed at checkpoints
	st   Stats
	// prog is the build's progress tracker (nil when the engine runs with
	// metrics disabled; all feeds are nil-safe).
	prog *progress.Tracker
	// The state one step hands the next. A fresh build fills it as it
	// goes; a resumed one restores it from its checkpoint (restore).
	sorter   *extsort.PartSorter
	from, to types.PageNum // scan: next page to visit, noted end (exclusive)
	merger   *extsort.Merger
	loader   *btree.Loader
	sfPos    uint64 // side-file: next entry to apply
}

// item encoding for the external sort: key bytes followed by a fixed-width
// RID suffix, so bytes.Compare on items equals the (key value, RID) entry
// order of the index.
const ridSuffix = 10

// appendRIDBytes appends rid's big-endian sort-item suffix to dst.
func appendRIDBytes(dst []byte, r types.RID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.PageID.File))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.PageID.Page))
	return binary.BigEndian.AppendUint16(dst, uint16(r.Slot))
}

func decodeItem(item []byte) (key []byte, rid types.RID, err error) {
	if len(item) < ridSuffix {
		return nil, types.RID{}, fmt.Errorf("core: sort item too short (%d bytes)", len(item))
	}
	cut := len(item) - ridSuffix
	return item[:cut], getRIDBytes(item[cut:]), nil
}

func getRIDBytes(src []byte) types.RID {
	return types.RID{
		PageID: types.PageID{File: types.FileID(binary.BigEndian.Uint32(src)),
			Page: types.PageNum(binary.BigEndian.Uint32(src[4:]))},
		Slot: types.SlotNum(binary.BigEndian.Uint16(src[8:])),
	}
}

// sortPrefix names a build's run files deterministically so restart finds
// them.
func sortPrefix(ix types.IndexID) string { return fmt.Sprintf("ib-%06d", ix) }

// rotate commits the builder transaction with a checkpoint record and
// starts a fresh one. The commit forces the log, making the checkpoint (and
// everything the builder logged before it) durable — "this involves IB
// recording on stable storage the highest key and issuing a commit call"
// (§2.2.3).
func (b *builder) rotate(st engine.IBState) error {
	payload := st.Encode()
	if _, err := b.tx.Log(&wal.Record{Type: wal.TypeIBCheckpoint, Flags: wal.FlagRedo, Payload: payload}); err != nil {
		return err
	}
	if err := b.tx.Commit(); err != nil {
		return err
	}
	b.db.NoteIBCheckpoint(b.ix.ID, payload)
	b.prog.MarkDurable()
	b.st.Checkpoints++
	b.tx = b.db.Begin()
	if b.opts.OnCheckpoint != nil {
		if err := b.opts.OnCheckpoint(st.Phase); err != nil {
			return err
		}
	}
	return nil
}

// scanPosition encodes the data scan cursor stored inside the sort state.
func scanPosition(next, end types.PageNum) []byte {
	return enc.NewWriter().U32(uint32(next)).U32(uint32(end)).Bytes()
}

func parseScanPosition(b []byte) (next, end types.PageNum, err error) {
	r := enc.NewReader(b)
	next = types.PageNum(r.U32())
	end = types.PageNum(r.U32())
	return next, end, r.Err()
}

// cancel aborts the build: roll back the in-flight builder transaction and
// drop the descriptor under the §2.3.2 quiesce. An error past the point
// where the index became complete (its final commit, the GC pass) cancels
// nothing and is returned as is.
func (b *builder) cancel(cause error) error {
	if errors.Is(cause, vfs.ErrCrashed) {
		// The file system is gone: no compensation can run on this
		// incarnation (DropIndex would block on locks held by transactions
		// that died with the machine). Restart recovery owns the cleanup.
		return fmt.Errorf("%w: %w", ErrBuildCancelled, cause)
	}
	if ix, ok := b.db.Catalog().Index(b.ix.Name); ok && ix.State == catalog.StateComplete {
		return cause
	}
	if b.tx != nil && b.tx.State() == txn.StateActive {
		if err := b.tx.Rollback(); err != nil {
			return err
		}
	}
	if b.ctl != nil {
		b.db.UnregisterBuild(b.ix.ID)
	}
	b.db.DropIBCheckpoint(b.ix.ID)
	if err := b.db.DropIndex(b.ix.Name); err != nil {
		return fmt.Errorf("core: cancelling build of %q: %w (cause: %v)", b.ix.Name, err, cause)
	}
	return fmt.Errorf("%w: %w", ErrBuildCancelled, cause)
}

// maxConflictRetries bounds how often one entry's unique conflict may come
// back inconclusive (the competing entry vanished or is stale while its
// owner's change is still in flight) before the build gives up on it.
const maxConflictRetries = 32

var errConflictLoop = errors.New("core: unique conflict did not converge")

// resolveConflict settles a unique conflict between entry e and the
// competing entry c by the §2.2.3 protocol: "IB would lock both records in
// share mode, and then access the index page and the corresponding data
// page(s) to verify whether the duplicate key value condition still
// exists." e is then skipped (its record changed since extraction), put in
// place of c's terminated pseudo entry, or the build fails. retry reports
// that the verdict was inconclusive and e must be inserted again. The NSF
// batch insert and SF side-file catch-up both resolve through here.
func (b *builder) resolveConflict(tree *btree.Tree, e btree.Entry, c *btree.UniqueConflict) (retry bool, err error) {
	// Lock both records in share mode (waits out uncommitted owners).
	if err := b.tx.Lock(lock.RecordName(e.RID), lock.S); err != nil {
		return false, err
	}
	if err := b.tx.Lock(lock.RecordName(c.OtherRID), lock.S); err != nil {
		return false, err
	}
	// (1) Does our record still produce this key?
	if ok, err := b.recordHasKey(e.RID, e.Key); err != nil || !ok {
		if err == nil {
			b.st.KeysSkipped++ // record deleted/updated since extraction
		}
		return false, err
	}
	// (2) Does the competing entry still exist, and in what state?
	found, pseudo, err := tree.SearchEntry(e.Key, c.OtherRID)
	if err != nil || !found {
		return err == nil, err
	}
	if pseudo {
		if err := tree.ReplaceRID(b.tx, e.Key, c.OtherRID, e.RID); err != nil {
			// A new competitor took the key meanwhile: insert e again.
			if _, again := err.(*btree.UniqueConflict); again {
				return true, nil
			}
			return false, err
		}
		b.st.KeysInserted++
		return false, nil
	}
	// (3) Does the competing record still produce this key value? A stale
	// live entry for a changed record means its owner's delete is still in
	// flight elsewhere: retry.
	if ok, err := b.recordHasKey(c.OtherRID, e.Key); err != nil || !ok {
		return err == nil, err
	}
	return false, &engine.UniqueViolationError{Index: b.ix.Name, Key: e.Key, Existing: c.OtherRID}
}

// recordHasKey reports whether the record at rid exists and its key columns
// encode to key.
func (b *builder) recordHasKey(rid types.RID, key []byte) (bool, error) {
	h, err := b.db.HeapOf(b.tbl.ID)
	if err != nil {
		return false, err
	}
	rec, ok, err := h.Get(rid)
	if err != nil || !ok {
		return false, err
	}
	got, err := engine.IndexKeyFromRecord(&b.ix, rec)
	if err != nil {
		return false, err
	}
	return string(got) == string(key), nil
}
