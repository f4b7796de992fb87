package engine

import (
	"testing"

	"onlineindex/internal/catalog"
	"onlineindex/internal/heap"
	"onlineindex/internal/keyenc"
	"onlineindex/internal/sidefile"
	"onlineindex/internal/types"
	"onlineindex/internal/wal"
)

// sfFixture creates a table with an SF-building index whose BuildCtl the
// test drives by hand, exposing the Fig. 1 / Fig. 2 protocol directly.
func sfFixture(t *testing.T) (*DB, catalog.Index, *BuildCtl) {
	t.Helper()
	db := openDB(t)
	var ctl *BuildCtl
	tx := db.Begin()
	ix, err := db.AddIndexDescriptor(tx, CreateIndexSpec{
		Name: "sf_idx", Table: "items", Columns: []string{"name"}, Method: catalog.MethodSF,
	}, func(ix catalog.Index) *BuildCtl {
		ctl = NewBuildCtl(ix.ID, catalog.MethodSF, PhaseCapture)
		tbl, _ := db.Catalog().Table("items")
		ctl.SetCurrentRID(types.RID{PageID: types.PageID{File: tbl.FileID}})
		return ctl
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ix, ctl
}

func sfEntries(t *testing.T, db *DB, ix catalog.Index) []sidefile.Entry {
	t.Helper()
	sf, err := db.SideFileOf(ix.ID)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := sf.Read(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return all
}

func TestSFRoutingByScanPosition(t *testing.T) {
	db, ix, ctl := sfFixture(t)

	// Scan at position zero: every operation is AHEAD of the scan — the
	// index is invisible, nothing goes to the side-file.
	tx := db.Begin()
	ridA, err := db.Insert(tx, "items", rowOf(1, "ahead", 0))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if got := len(sfEntries(t, db, ix)); got != 0 {
		t.Fatalf("side-file after ahead-of-scan insert: %d entries, want 0", got)
	}

	// Advance the scan past every page: operations are now BEHIND the scan
	// and must be captured.
	ctl.SetCurrentRID(types.MaxRID)
	tx2 := db.Begin()
	if err := db.Delete(tx2, "items", ridA); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	ents := sfEntries(t, db, ix)
	if len(ents) != 1 || ents[0].Op != sidefile.OpDelete || ents[0].RID != ridA {
		t.Fatalf("side-file after behind-scan delete: %+v", ents)
	}

	// Updates that change the key append a delete + an insert.
	tx3 := db.Begin()
	ridB, _ := db.Insert(tx3, "items", rowOf(2, "second", 0))
	tx3.Commit()
	tx4 := db.Begin()
	if _, err := db.Update(tx4, "items", ridB, rowOf(2, "renamed", 0)); err != nil {
		t.Fatal(err)
	}
	tx4.Commit()
	ents = sfEntries(t, db, ix)
	// delete(A), insert(B), delete(old B key), insert(new B key)
	if len(ents) != 4 || ents[2].Op != sidefile.OpDelete || ents[3].Op != sidefile.OpInsert {
		t.Fatalf("side-file after update: %+v", ents)
	}
}

func TestSFVisCountInDataPageRecords(t *testing.T) {
	db, _, ctl := sfFixture(t)

	// Invisible (ahead of scan): visCount must be 0.
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "x", 0))
	tx.Commit()

	// Visible (behind scan): visCount must be 1.
	ctl.SetCurrentRID(types.MaxRID)
	tx2 := db.Begin()
	db.Delete(tx2, "items", rid)
	tx2.Commit()

	var counts []uint16
	it, _ := db.Log().NewIterator(1)
	for {
		r, ok, _ := it.Next()
		if !ok {
			break
		}
		switch r.Type {
		case wal.TypeHeapInsert:
			if pl, err := decodeHeapInsert(r.Payload); err == nil {
				counts = append(counts, pl)
			}
		case wal.TypeHeapDelete:
			if pl, err := decodeHeapDelete(r.Payload); err == nil {
				counts = append(counts, pl)
			}
		}
	}
	if len(counts) < 2 {
		t.Fatalf("found %d data-page records", len(counts))
	}
	if counts[len(counts)-2] != 0 {
		t.Fatalf("insert visCount = %d, want 0 (index invisible)", counts[len(counts)-2])
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("delete visCount = %d, want 1 (index visible)", counts[len(counts)-1])
	}
}

func TestSFRollbackAcrossVisibilityChange(t *testing.T) {
	// Fig. 2's core case: forward processing ran with the index INVISIBLE
	// (no side-file entry), the scan then passed the page, and the rollback
	// must compensate — "IB will reflect in new index old state of record",
	// so the undo of an insert appends a DELETE entry.
	db, ix, ctl := sfFixture(t)

	tx := db.Begin()
	rid, err := db.Insert(tx, "items", rowOf(1, "phantom", 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sfEntries(t, db, ix)); got != 0 {
		t.Fatalf("insert ahead of scan should not be captured, got %d entries", got)
	}

	// The scan passes the record's page (IB extracted the uncommitted key).
	ctl.SetCurrentRID(types.MaxRID)

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	ents := sfEntries(t, db, ix)
	if len(ents) != 1 || ents[0].Op != sidefile.OpDelete || ents[0].RID != rid {
		t.Fatalf("rollback compensation entries = %+v, want one delete for %v", ents, rid)
	}
}

func TestSFRollbackBothInvisible(t *testing.T) {
	// If the scan has not passed the page by undo time either, no entry is
	// made: IB will scan the rolled-back (old) state.
	db, ix, _ := sfFixture(t)
	tx := db.Begin()
	if _, err := db.Insert(tx, "items", rowOf(1, "x", 0)); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if got := len(sfEntries(t, db, ix)); got != 0 {
		t.Fatalf("entries = %d, want 0 (invisible at op and at undo)", got)
	}
}

func TestSFRollbackBothVisible(t *testing.T) {
	// Visible at op time (captured) and still capture-mode at undo: the undo
	// appends the compensating entry; net effect insert+delete.
	db, ix, ctl := sfFixture(t)
	ctl.SetCurrentRID(types.MaxRID)
	tx := db.Begin()
	rid, _ := db.Insert(tx, "items", rowOf(1, "x", 0))
	tx.Rollback()
	ents := sfEntries(t, db, ix)
	if len(ents) != 2 || ents[0].Op != sidefile.OpInsert || ents[1].Op != sidefile.OpDelete {
		t.Fatalf("entries = %+v, want [insert delete]", ents)
	}
	if ents[0].RID != rid || ents[1].RID != rid {
		t.Fatalf("entries reference %v/%v, want %v", ents[0].RID, ents[1].RID, rid)
	}
}

func TestSFDirectAfterSwitch(t *testing.T) {
	// After the side-file switch (PhaseDirect + complete), transactions
	// maintain the index directly.
	db, ix, ctl := sfFixture(t)
	ctl.FreezeAppends()
	tx0 := db.Begin()
	if err := db.SetIndexComplete(tx0, ix.ID); err != nil {
		t.Fatal(err)
	}
	ctl.SetPhase(PhaseDirect)
	ctl.UnfreezeAppends()
	tx0.Commit()
	db.UnregisterBuild(ix.ID)

	tx := db.Begin()
	rid, err := db.Insert(tx, "items", rowOf(1, "direct", 0))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx2 := db.Begin()
	rids, err := db.IndexLookup(tx2, "sf_idx", keyenc.String("direct"))
	if err != nil || len(rids) != 1 || rids[0] != rid {
		t.Fatalf("direct lookup = %v, %v", rids, err)
	}
	tx2.Commit()
}

func decodeHeapInsert(b []byte) (uint16, error) {
	pl, err := heap.DecodeInsert(b)
	return pl.VisCount, err
}

func decodeHeapDelete(b []byte) (uint16, error) {
	pl, err := heap.DecodeDelete(b)
	return pl.VisCount, err
}
