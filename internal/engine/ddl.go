package engine

import (
	"errors"
	"fmt"

	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/heap"
	"onlineindex/internal/lock"
	"onlineindex/internal/rm"
	"onlineindex/internal/sidefile"
	"onlineindex/internal/txn"
	"onlineindex/internal/types"
	"onlineindex/internal/wal"
)

// CreateTable creates a table and opens its heap. DDL is logged redo-only
// and committed immediately.
func (db *DB) CreateTable(name string, schema catalog.Schema) (catalog.Table, error) {
	t := catalog.Table{
		ID:     db.cat.NextTableID(),
		Name:   name,
		FileID: db.cat.AllocFileID(),
		Schema: schema,
	}
	tx := db.Begin()
	if _, err := tx.Log(&wal.Record{
		Type: wal.TypeCreateTable, Flags: wal.FlagRedo,
		Payload: catalog.EncodeCreateTable(&t),
	}); err != nil {
		return catalog.Table{}, err
	}
	if err := db.cat.AddTable(&t); err != nil {
		return catalog.Table{}, err
	}
	h, err := heap.Open(db.pool, t.FileID)
	if err != nil {
		return catalog.Table{}, err
	}
	db.mu.Lock()
	db.tables[t.ID] = h
	db.mu.Unlock()
	db.installZoneMap(t.ID, h)
	if err := tx.Commit(); err != nil {
		return catalog.Table{}, err
	}
	return t, nil
}

// CreateIndexSpec describes a new index.
type CreateIndexSpec struct {
	Name    string
	Table   string
	Columns []string // column names
	Unique  bool
	Method  catalog.BuildMethod
}

// AddIndexDescriptor performs the descriptor-creation step of an index
// build inside tx — the step whose quiescing behaviour distinguishes the
// algorithms:
//
//   - NSF: "this is a short term quiesce of updates against the table ...
//     achieved by IB acquiring a share (S) lock on the table and holding it
//     for the duration of the index descriptor create operation" (§2.2.1).
//     tx is the QuiesceTable transaction, and the quiesce guarantees no
//     transaction has uncommitted updates that predate the descriptor, so
//     every later rollback finds its index log records. Committing tx
//     makes the descriptor durable and ends the quiesce.
//   - SF: "the descriptor for the new index is created and appended ...
//     without quiescing (update) transactions" (§3.2.1).
//   - Offline: the caller holds a QuiesceTable transaction for the whole
//     build and creates the descriptor in a transaction of its own.
//
// The caller commits tx, or rolls it back on error. makeCtl, when set,
// supplies the build control to register together with the descriptor: the
// SF algorithm's Index_Build flag and Current-RID must be observable by the
// very first transaction that sees the new descriptor.
func (db *DB) AddIndexDescriptor(tx *txn.Txn, spec CreateIndexSpec, makeCtl func(catalog.Index) *BuildCtl) (catalog.Index, error) {
	tbl, ok := db.cat.Table(spec.Table)
	if !ok {
		return catalog.Index{}, fmt.Errorf("engine: no table %q", spec.Table)
	}
	var cols []int
	for _, cn := range spec.Columns {
		found := -1
		for i, c := range tbl.Schema {
			if c.Name == cn {
				found = i
				break
			}
		}
		if found < 0 {
			return catalog.Index{}, fmt.Errorf("engine: table %q has no column %q", spec.Table, cn)
		}
		cols = append(cols, found)
	}

	ix := catalog.Index{
		ID:      db.cat.NextIndexID(),
		Name:    spec.Name,
		Table:   tbl.ID,
		FileID:  db.cat.AllocFileID(),
		Columns: cols,
		Unique:  spec.Unique,
		Method:  spec.Method,
		State:   catalog.StateBuilding,
	}
	if spec.Method == catalog.MethodSF {
		ix.SideFile = db.cat.AllocFileID()
	}

	if _, err := tx.Log(&wal.Record{
		Type: wal.TypeCreateIndex, Flags: wal.FlagRedo,
		Payload: catalog.EncodeCreateIndex(&ix),
	}); err != nil {
		return catalog.Index{}, err
	}

	// Create the physical structures.
	tree, err := btree.Create(db.pool, ix.FileID, btree.Config{Unique: ix.Unique, Budget: db.cfg.TreeBudget}, tx)
	if err != nil {
		return catalog.Index{}, err
	}
	tree.SetMetrics(btree.MetricsFrom(db.met))
	var sf *sidefile.File
	if ix.SideFile != 0 {
		sf, err = sidefile.Create(db.pool, ix.SideFile, tx)
		if err != nil {
			return catalog.Index{}, err
		}
		sf.SetMetrics(sidefile.MetricsFrom(db.met))
	}

	// Install in the catalog and open handles — under the engine mutex so
	// the descriptor, tree, side-file and build control appear to
	// transactions atomically.
	db.mu.Lock()
	if err := db.cat.AddIndex(&ix); err != nil {
		db.mu.Unlock()
		return catalog.Index{}, err
	}
	db.trees[ix.ID] = tree
	db.treeFiles[ix.FileID] = ix.ID
	if sf != nil {
		db.sfiles[ix.ID] = sf
	}
	if makeCtl != nil {
		db.builds[ix.ID] = makeCtl(ix)
	}
	db.mu.Unlock()
	return ix, nil
}

// SetIndexComplete transitions a built index to the readable state; the
// state-change record's LSN becomes the index's CompleteLSN (the watershed
// between side-file-era and direct-era updates that rollback consults).
func (db *DB) SetIndexComplete(tl rm.TxnLogger, ix types.IndexID) error {
	pl := catalog.StateChangePayload{Index: ix, State: catalog.StateComplete}
	lsn, err := tl.Log(&wal.Record{
		Type: wal.TypeIndexStateChange, Flags: wal.FlagRedo,
		Payload: pl.Encode(),
	})
	if err != nil {
		return err
	}
	return db.cat.SetIndexState(ix, catalog.StateComplete, lsn)
}

// DropIndex removes an index (or cancels a build, §2.3.2: "since canceling
// an in-progress index build requires that the descriptor of the index be
// deleted, we need to quiesce update transactions by acquiring a share lock
// on the table"). The same quiesce covers ordinary drops: "an index cannot
// be dropped while update transactions are active" (§3 footnote).
func (db *DB) DropIndex(name string) error {
	ix, ok := db.cat.Index(name)
	if !ok {
		return fmt.Errorf("engine: no index %q", name)
	}
	tx := db.Begin()
	if err := tx.Lock(lock.TableName(ix.Table), lock.S); err != nil {
		tx.Rollback()
		return err
	}
	pl := catalog.StateChangePayload{Index: ix.ID, State: catalog.StateDropped}
	if _, err := tx.Log(&wal.Record{
		Type: wal.TypeDropIndex, Flags: wal.FlagRedo,
		Payload: pl.Encode(),
	}); err != nil {
		tx.Rollback()
		return err
	}
	if err := db.cat.SetIndexState(ix.ID, catalog.StateDropped, types.NilLSN); err != nil {
		tx.Rollback()
		return err
	}
	db.mu.Lock()
	delete(db.trees, ix.ID)
	delete(db.treeFiles, ix.FileID)
	delete(db.sfiles, ix.ID)
	delete(db.builds, ix.ID)
	delete(db.lastIBCkpt, ix.ID)
	delete(db.rcaches, ix.ID)
	db.mu.Unlock()
	return tx.Commit()
}

// QuiesceTable acquires S locks on the tables, in the order given, under
// one dedicated transaction and returns it. The offline baseline holds it
// for the whole build; an NSF build creates all its descriptors inside it,
// so no update transaction commits on any of the tables between the first
// descriptor and the last (partition.Build quiesces every shard table this
// way). A deadlock with an updater that holds IX on a later table and waits
// on an earlier one makes the quiesce the victim; it then starts over.
// Callers must Commit (or Rollback) the returned transaction to end the
// quiesce.
func (db *DB) QuiesceTable(tables ...types.TableID) (*txn.Txn, error) {
	for {
		tx := db.Begin()
		var err error
		for _, t := range tables {
			if err = tx.Lock(lock.TableName(t), lock.S); err != nil {
				break
			}
		}
		if err == nil {
			return tx, nil
		}
		tx.Rollback()
		if !errors.Is(err, lock.ErrDeadlock) {
			return nil, err
		}
	}
}
