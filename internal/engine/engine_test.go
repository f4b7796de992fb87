package engine

import (
	"errors"
	"fmt"
	"testing"

	"onlineindex/internal/catalog"
	"onlineindex/internal/keyenc"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

func testSchema() catalog.Schema {
	return catalog.Schema{
		{Name: "id", Kind: keyenc.KindInt64},
		{Name: "name", Kind: keyenc.KindString},
		{Name: "qty", Kind: keyenc.KindInt64},
	}
}

func rowOf(id int64, name string, qty int64) Row {
	return Row{keyenc.Int64(id), keyenc.String(name), keyenc.Int64(qty)}
}

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{PoolSize: 256, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	return db
}

// createDescriptor creates a building index's descriptor in a transaction
// of its own (the builders are in package core; engine tests exercise the
// DML paths).
func createDescriptor(t *testing.T, db *DB, spec CreateIndexSpec) catalog.Index {
	t.Helper()
	tx := db.Begin()
	ix, err := db.AddIndexDescriptor(tx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ix
}

// createCompleteIndex fabricates a complete, empty index directly.
func createCompleteIndex(t *testing.T, db *DB, name string, cols []string, unique bool) catalog.Index {
	t.Helper()
	ix := createDescriptor(t, db, CreateIndexSpec{
		Name: name, Table: "items", Columns: cols, Unique: unique, Method: catalog.MethodNSF,
	})
	tx := db.Begin()
	if err := db.SetIndexComplete(tx, ix.ID); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ix2, _ := db.Catalog().Index(name)
	return ix2
}

func TestInsertAndIndexLookup(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "by_name", []string{"name"}, false)

	tx := db.Begin()
	rid, err := db.Insert(tx, "items", rowOf(1, "widget", 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	rids, err := db.IndexLookup(tx2, "by_name", keyenc.String("widget"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != rid {
		t.Fatalf("lookup = %v, want [%v]", rids, rid)
	}
	tx2.Commit()
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMaintainsIndex(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "by_name", []string{"name"}, false)
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "gone", 1))
	tx.Commit()

	tx2 := db.Begin()
	if err := db.Delete(tx2, "items", rid); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	tx3 := db.Begin()
	rids, _ := db.IndexLookup(tx3, "by_name", keyenc.String("gone"))
	if len(rids) != 0 {
		t.Fatalf("lookup after delete = %v", rids)
	}
	tx3.Commit()
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateKeyChange(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "by_name", []string{"name"}, false)
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "old", 1))
	tx.Commit()

	tx2 := db.Begin()
	if _, err := db.Update(tx2, "items", rid, rowOf(1, "new", 1)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	tx3 := db.Begin()
	if rids, _ := db.IndexLookup(tx3, "by_name", keyenc.String("old")); len(rids) != 0 {
		t.Fatalf("old key still live: %v", rids)
	}
	if rids, _ := db.IndexLookup(tx3, "by_name", keyenc.String("new")); len(rids) != 1 {
		t.Fatalf("new key missing: %v", rids)
	}
	tx3.Commit()
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateNonKeyColumnsSkipsIndex(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "by_name", []string{"name"}, false)
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "same", 1))
	tx.Commit()
	before := db.Log().Stats()

	tx2 := db.Begin()
	if _, err := db.Update(tx2, "items", rid, rowOf(1, "same", 99)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	// No index records should have been written for the non-key update.
	d := db.Log().Stats().Delta(before)
	idxRecords := uint64(0)
	for ty := 0; ty < 32; ty++ {
		// crude: count everything except heap/commit/end
	}
	_ = idxRecords
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
	_ = d
}

func TestRollbackInsertRemovesKey(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "by_name", []string{"name"}, false)
	tx := db.Begin()
	if _, err := db.Insert(tx, "items", rowOf(1, "phantom", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	rids, _ := db.IndexLookup(tx2, "by_name", keyenc.String("phantom"))
	if len(rids) != 0 {
		t.Fatalf("rolled-back insert visible in index: %v", rids)
	}
	tx2.Commit()
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackDeleteRestoresKey(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "by_name", []string{"name"}, false)
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "keepme", 1))
	tx.Commit()

	tx2 := db.Begin()
	db.Delete(tx2, "items", rid)
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx3 := db.Begin()
	rids, _ := db.IndexLookup(tx3, "by_name", keyenc.String("keepme"))
	if len(rids) != 1 || rids[0] != rid {
		t.Fatalf("rolled-back delete lost key: %v", rids)
	}
	tx3.Commit()
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackUpdateRestoresKeys(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "by_name", []string{"name"}, false)
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "alpha", 1))
	tx.Commit()

	tx2 := db.Begin()
	db.Update(tx2, "items", rid, rowOf(1, "beta", 1)) //nolint:errcheck
	tx2.Rollback()

	tx3 := db.Begin()
	if rids, _ := db.IndexLookup(tx3, "by_name", keyenc.String("alpha")); len(rids) != 1 {
		t.Fatalf("alpha missing after rollback: %v", rids)
	}
	if rids, _ := db.IndexLookup(tx3, "by_name", keyenc.String("beta")); len(rids) != 0 {
		t.Fatalf("beta visible after rollback: %v", rids)
	}
	tx3.Commit()
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueViolation(t *testing.T) {
	db := openDB(t)
	createCompleteIndex(t, db, "uniq_id", []string{"id"}, true)
	tx := db.Begin()
	if _, err := db.Insert(tx, "items", rowOf(7, "first", 1)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2 := db.Begin()
	_, err := db.Insert(tx2, "items", rowOf(7, "second", 1))
	var uv *UniqueViolationError
	if !errors.As(err, &uv) {
		t.Fatalf("err = %v, want UniqueViolationError", err)
	}
	tx2.Rollback()
	if err := db.CheckIndexConsistency("uniq_id"); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueReinsertAfterCommittedDelete(t *testing.T) {
	// Delete commits, then another record takes over the key value: the
	// pseudo-deleted entry's RID is replaced (§2.2.3 example tail).
	db := openDB(t)
	createCompleteIndex(t, db, "uniq_id", []string{"id"}, true)
	tx := db.Begin()
	rid1, _ := db.Insert(tx, "items", rowOf(7, "first", 1))
	tx.Commit()

	tx2 := db.Begin()
	db.Delete(tx2, "items", rid1)
	tx2.Commit()

	tx3 := db.Begin()
	rid2, err := db.Insert(tx3, "items", rowOf(7, "second", 1))
	if err != nil {
		t.Fatal(err)
	}
	tx3.Commit()

	tx4 := db.Begin()
	rids, _ := db.IndexLookup(tx4, "uniq_id", keyenc.Int64(7))
	if len(rids) != 1 || rids[0] != rid2 {
		t.Fatalf("lookup = %v, want [%v]", rids, rid2)
	}
	tx4.Commit()
	if err := db.CheckIndexConsistency("uniq_id"); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueInsertBlocksOnUncommittedDelete(t *testing.T) {
	// An inserter of a key value pseudo-deleted by an UNCOMMITTED deleter
	// must wait; if the deleter rolls back, the insert fails with a
	// violation; if it commits, the insert succeeds.
	db := openDB(t)
	createCompleteIndex(t, db, "uniq_id", []string{"id"}, true)
	tx := db.Begin()
	rid1, _ := db.Insert(tx, "items", rowOf(7, "owner", 1))
	tx.Commit()

	deleter := db.Begin()
	if err := db.Delete(deleter, "items", rid1); err != nil {
		t.Fatal(err)
	}

	result := make(chan error, 1)
	go func() {
		ins := db.Begin()
		_, err := db.Insert(ins, "items", rowOf(7, "taker", 1))
		if err != nil {
			ins.Rollback()
		} else {
			err = ins.Commit()
		}
		result <- err
	}()

	// The inserter should be blocked on the deleter's record lock.
	select {
	case err := <-result:
		t.Fatalf("insert finished while deleter uncommitted: %v", err)
	default:
	}
	if err := deleter.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatalf("insert after committed delete: %v", err)
	}
	if err := db.CheckIndexConsistency("uniq_id"); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open(Config{FS: fs, PoolSize: 128, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	ix := createDescriptor(t, db, CreateIndexSpec{
		Name: "by_name", Table: "items", Columns: []string{"name"}, Method: catalog.MethodNSF,
	})
	tx0 := db.Begin()
	if err := db.SetIndexComplete(tx0, ix.ID); err != nil {
		t.Fatal(err)
	}
	tx0.Commit()

	// Committed work.
	var rids []types.RID
	for i := 0; i < 200; i++ {
		tx := db.Begin()
		rid, err := db.Insert(tx, "items", rowOf(int64(i), fmt.Sprintf("item-%04d", i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	tx := db.Begin()
	db.Delete(tx, "items", rids[5])
	tx.Commit()

	// A loser: uncommitted at crash.
	loser := db.Begin()
	if _, err := db.Insert(loser, "items", rowOf(999, "uncommitted", 1)); err != nil {
		t.Fatal(err)
	}
	db.Delete(loser, "items", rids[10])

	db.Crash()

	db2, err := Recover(Config{FS: fs, PoolSize: 128, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}

	// Committed state survives; loser is rolled back.
	tx2 := db2.Begin()
	if rids2, _ := db2.IndexLookup(tx2, "by_name", keyenc.String("item-0042")); len(rids2) != 1 {
		t.Errorf("committed key missing after recovery: %v", rids2)
	}
	if rids2, _ := db2.IndexLookup(tx2, "by_name", keyenc.String("item-0005")); len(rids2) != 0 {
		t.Errorf("deleted key resurrected: %v", rids2)
	}
	if rids2, _ := db2.IndexLookup(tx2, "by_name", keyenc.String("uncommitted")); len(rids2) != 0 {
		t.Errorf("loser insert visible: %v", rids2)
	}
	if rids2, _ := db2.IndexLookup(tx2, "by_name", keyenc.String("item-0010")); len(rids2) != 1 {
		t.Errorf("loser delete not rolled back: %v", rids2)
	}
	tx2.Commit()
	if err := db2.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}

	// The engine remains usable.
	tx3 := db2.Begin()
	if _, err := db2.Insert(tx3, "items", rowOf(1000, "after-recovery", 1)); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	if err := db2.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryIdempotentDoubleCrash(t *testing.T) {
	fs := vfs.NewMemFS()
	db, _ := Open(Config{FS: fs, PoolSize: 128})
	db.CreateTable("items", testSchema())
	for i := 0; i < 50; i++ {
		tx := db.Begin()
		db.Insert(tx, "items", rowOf(int64(i), fmt.Sprintf("n%d", i), 1))
		tx.Commit()
	}
	loser := db.Begin()
	db.Insert(loser, "items", rowOf(100, "loser", 1))
	db.Crash()

	db2, err := Recover(Config{FS: fs, PoolSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Crash again immediately after recovery, then recover again.
	db2.Crash()
	db3, err := Recover(Config{FS: fs, PoolSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	db3.TableScan("items", func(rid types.RID, row Row) error {
		count++
		return nil
	})
	if count != 50 {
		t.Fatalf("rows after double recovery = %d, want 50", count)
	}
}

func TestCheckpointBoundsRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	db, _ := Open(Config{FS: fs, PoolSize: 128})
	db.CreateTable("items", testSchema())
	for i := 0; i < 100; i++ {
		tx := db.Begin()
		db.Insert(tx, "items", rowOf(int64(i), fmt.Sprintf("n%d", i), 1))
		tx.Commit()
		if i == 49 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Crash()
	db2, err := Recover(Config{FS: fs, PoolSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	db2.TableScan("items", func(rid types.RID, row Row) error { count++; return nil })
	if count != 100 {
		t.Fatalf("rows = %d, want 100", count)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	row := rowOf(-42, "héllo\x00world", 7)
	dec, err := DecodeRow(EncodeRow(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 || !dec[0].Equal(row[0]) || !dec[1].Equal(row[1]) || !dec[2].Equal(row[2]) {
		t.Fatalf("round trip = %v", dec)
	}
}

func TestSchemaValidation(t *testing.T) {
	db := openDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	if _, err := db.Insert(tx, "items", Row{keyenc.Int64(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := db.Insert(tx, "items", Row{keyenc.String("x"), keyenc.String("y"), keyenc.Int64(1)}); err == nil {
		t.Fatal("mistyped row accepted")
	}
	if _, err := db.Insert(tx, "nosuch", rowOf(1, "a", 1)); err == nil {
		t.Fatal("insert into missing table accepted")
	}
}

func TestIndexNotReadableWhileBuilding(t *testing.T) {
	db := openDB(t)
	createDescriptor(t, db, CreateIndexSpec{
		Name: "building", Table: "items", Columns: []string{"name"}, Method: catalog.MethodNSF,
	})
	tx := db.Begin()
	defer tx.Rollback()
	_, err := db.IndexLookup(tx, "building", keyenc.String("x"))
	var nr *ErrIndexNotReadable
	if !errors.As(err, &nr) {
		t.Fatalf("err = %v, want ErrIndexNotReadable", err)
	}
}

func TestSlotNotReusedWhileDeleterUncommitted(t *testing.T) {
	db := openDB(t)
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "victim", 1))
	tx.Commit()

	deleter := db.Begin()
	if err := db.Delete(deleter, "items", rid); err != nil {
		t.Fatal(err)
	}
	// Another transaction inserting now must NOT land on the same RID.
	other := db.Begin()
	rid2, err := db.Insert(other, "items", rowOf(2, "newcomer", 1))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 == rid {
		t.Fatalf("slot of uncommitted delete reused: %v", rid2)
	}
	other.Commit()
	// Rollback of the deleter must find its slot free.
	if err := deleter.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	row, ok, err := db.Get(tx2, "items", rid)
	if err != nil || !ok {
		t.Fatalf("victim not restored: ok=%v err=%v", ok, err)
	}
	if row[1].S != "victim" {
		t.Fatalf("restored row = %v", row)
	}
	tx2.Commit()
}
