package btree

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"onlineindex/internal/buffer"
	"onlineindex/internal/rm"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/wal"
)

// smallBudget forces frequent splits so tests exercise deep trees.
const smallBudget = 512

func newTree(t *testing.T, unique bool, budget int) (*vfs.MemFS, *wal.Log, *buffer.Pool, *Tree) {
	t.Helper()
	fs := vfs.NewMemFS()
	log, err := wal.Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(fs, log, 256)
	tr, err := Create(pool, 7, Config{Unique: unique, Budget: budget}, &rm.SimpleLogger{L: log, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fs, log, pool, tr
}

func TestInsertAndSearch(t *testing.T) {
	_, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	// Enough keys for three levels even with prefix-truncated pages, whose
	// fanout at this budget is about twice that of full-key pages.
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		res, conflict, err := tr.TxnInsert(tl, keyOf(i), ridOf(i))
		if err != nil || conflict != nil || res != Inserted {
			t.Fatalf("insert %d: res=%v conflict=%v err=%v", i, res, conflict, err)
		}
	}
	checkInvariants(t, tr)
	for i := 0; i < n; i++ {
		found, pseudo, err := tr.SearchEntry(keyOf(i), ridOf(i))
		if err != nil || !found || pseudo {
			t.Fatalf("search %d: found=%v pseudo=%v err=%v", i, found, pseudo, err)
		}
	}
	if found, _, _ := tr.SearchEntry(keyOf(n+1), ridOf(n+1)); found {
		t.Fatal("found nonexistent key")
	}
	h, _ := tr.Height()
	if h < 3 {
		t.Fatalf("height = %d; want >= 3 with budget %d", h, smallBudget)
	}
	ents := collect(t, tr)
	if len(ents) != n {
		t.Fatalf("scan found %d entries, want %d", len(ents), n)
	}
}

func TestDuplicateInsertRejectedWithNoopLog(t *testing.T) {
	// §2.1.1: the second inserter of an identical entry writes an undo-only
	// record instead of inserting.
	_, log, _, tr := newTree(t, false, smallBudget)
	ib := &rm.SimpleLogger{L: log, Txn: 1}
	txn := &rm.SimpleLogger{L: log, Txn: 2}

	cur := &IBCursor{}
	res, _, _, err := tr.IBInsertBatch(ib, []Entry{{Key: keyOf(1), RID: ridOf(1)}}, cur)
	if err != nil || res.Inserted != 1 {
		t.Fatalf("IB insert: %+v, %v", res, err)
	}

	r, conflict, err := tr.TxnInsert(txn, keyOf(1), ridOf(1))
	if err != nil || conflict != nil {
		t.Fatal(err, conflict)
	}
	if r != AlreadyPresent {
		t.Fatalf("result = %v, want AlreadyPresent", r)
	}
	// Verify the undo-only record exists.
	it, _ := log.NewIterator(1)
	var noop *wal.Record
	for {
		rec, ok, _ := it.Next()
		if !ok {
			break
		}
		if rec.Type == wal.TypeIdxInsertNoop {
			noop = &rec
		}
	}
	if noop == nil {
		t.Fatal("no TypeIdxInsertNoop record written")
	}
	if noop.Redoable() || !noop.Undoable() {
		t.Fatalf("noop record flags = %v, want undo-only", noop.Flags)
	}
	live, pseudo, _ := tr.CountEntries()
	if live != 1 || pseudo != 0 {
		t.Fatalf("entries = %d live, %d pseudo; want 1, 0", live, pseudo)
	}
}

func TestPseudoDeleteAndTombstone(t *testing.T) {
	_, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}

	tr.TxnInsert(tl, keyOf(1), ridOf(1))
	out, err := tr.TxnPseudoDelete(tl, keyOf(1), ridOf(1))
	if err != nil || out != DeleteMarked {
		t.Fatalf("delete existing: %v, %v", out, err)
	}
	found, pseudo, _ := tr.SearchEntry(keyOf(1), ridOf(1))
	if !found || !pseudo {
		t.Fatalf("entry should be pseudo-deleted: found=%v pseudo=%v", found, pseudo)
	}
	// Lookup must skip pseudo-deleted entries.
	rids, _ := tr.Lookup(keyOf(1))
	if len(rids) != 0 {
		t.Fatalf("lookup of pseudo-deleted key returned %v", rids)
	}

	// Deleting again is a no-op.
	out, _ = tr.TxnPseudoDelete(tl, keyOf(1), ridOf(1))
	if out != DeleteAlreadyPseudo {
		t.Fatalf("double delete: %v", out)
	}

	// Deleting an absent key inserts a tombstone (§2.2.3).
	out, err = tr.TxnPseudoDelete(tl, keyOf(2), ridOf(2))
	if err != nil || out != DeleteTombstoned {
		t.Fatalf("tombstone: %v, %v", out, err)
	}
	found, pseudo, _ = tr.SearchEntry(keyOf(2), ridOf(2))
	if !found || !pseudo {
		t.Fatal("tombstone not present as pseudo-deleted")
	}
}

func TestIBInsertRejectedByTombstone(t *testing.T) {
	// The delete-key race (§1.2): the deleter tombstones the key, so IB's
	// later insert of the stale key is rejected.
	_, log, _, tr := newTree(t, false, smallBudget)
	txn := &rm.SimpleLogger{L: log, Txn: 2}
	ib := &rm.SimpleLogger{L: log, Txn: 1}

	tr.TxnPseudoDelete(txn, keyOf(5), ridOf(5)) // tombstone
	cur := &IBCursor{}
	res, _, _, err := tr.IBInsertBatch(ib, []Entry{{Key: keyOf(5), RID: ridOf(5)}}, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Skipped != 1 {
		t.Fatalf("IB insert over tombstone: %+v, want skip", res)
	}
	// The key stays pseudo-deleted: the delete wins.
	_, pseudo, _ := tr.SearchEntry(keyOf(5), ridOf(5))
	if !pseudo {
		t.Fatal("tombstone overwritten by IB")
	}
}

func TestReactivation(t *testing.T) {
	// §2.2.3 example steps 6-8: insert at the same RID reactivates the
	// pseudo-deleted entry.
	_, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	tr.TxnInsert(tl, keyOf(1), ridOf(1))
	tr.TxnPseudoDelete(tl, keyOf(1), ridOf(1))
	r, conflict, err := tr.TxnInsert(tl, keyOf(1), ridOf(1))
	if err != nil || conflict != nil || r != Reactivated {
		t.Fatalf("reinsert: r=%v conflict=%v err=%v", r, conflict, err)
	}
	found, pseudo, _ := tr.SearchEntry(keyOf(1), ridOf(1))
	if !found || pseudo {
		t.Fatal("entry not reactivated")
	}
}

func TestNonuniqueAllowsSameKeyValueDifferentRID(t *testing.T) {
	_, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	for i := 0; i < 50; i++ {
		r, conflict, err := tr.TxnInsert(tl, []byte("same-key"), ridOf(i))
		if err != nil || conflict != nil || r != Inserted {
			t.Fatalf("dup keyvalue insert %d: %v %v %v", i, r, conflict, err)
		}
	}
	rids, _ := tr.Lookup([]byte("same-key"))
	if len(rids) != 50 {
		t.Fatalf("lookup found %d RIDs, want 50", len(rids))
	}
	for i := 1; i < len(rids); i++ {
		if !rids[i-1].Less(rids[i]) {
			t.Fatal("RIDs not in order")
		}
	}
	checkInvariants(t, tr)
}

func TestUniqueConflictLive(t *testing.T) {
	_, log, _, tr := newTree(t, true, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	r, conflict, err := tr.TxnInsert(tl, []byte("K"), ridOf(1))
	if err != nil || conflict != nil || r != Inserted {
		t.Fatal(r, conflict, err)
	}
	_, conflict, err = tr.TxnInsert(tl, []byte("K"), ridOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil || conflict.Pseudo || conflict.OtherRID != ridOf(1) {
		t.Fatalf("conflict = %+v, want live conflict with %v", conflict, ridOf(1))
	}
}

func TestUniqueConflictPseudoThenReplaceRID(t *testing.T) {
	// §2.2.3 example tail: T2 inserts <K, R1> while <K, R> is pseudo-deleted
	// by a terminated transaction; after verification T2 replaces R with R1.
	_, log, _, tr := newTree(t, true, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	tr.TxnInsert(tl, []byte("K"), ridOf(1))
	tr.TxnPseudoDelete(tl, []byte("K"), ridOf(1))

	_, conflict, err := tr.TxnInsert(tl, []byte("K"), ridOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil || !conflict.Pseudo || conflict.OtherRID != ridOf(1) {
		t.Fatalf("conflict = %+v, want pseudo conflict with %v", conflict, ridOf(1))
	}
	// Caller verified the old inserter terminated; replace.
	if err := tr.ReplaceRID(tl, []byte("K"), ridOf(1), ridOf(2)); err != nil {
		t.Fatal(err)
	}
	rids, _ := tr.Lookup([]byte("K"))
	if len(rids) != 1 || rids[0] != ridOf(2) {
		t.Fatalf("lookup after replace = %v, want [%v]", rids, ridOf(2))
	}
	checkInvariants(t, tr)
}

func TestUniqueInsertAfterPseudoSameRID(t *testing.T) {
	_, log, _, tr := newTree(t, true, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	tr.TxnInsert(tl, []byte("K"), ridOf(1))
	tr.TxnPseudoDelete(tl, []byte("K"), ridOf(1))
	r, conflict, err := tr.TxnInsert(tl, []byte("K"), ridOf(1))
	if err != nil || conflict != nil || r != Reactivated {
		t.Fatalf("unique reactivate: %v %v %v", r, conflict, err)
	}
}

func TestIBBatchAscendingWithCursor(t *testing.T) {
	_, log, _, tr := newTree(t, false, smallBudget)
	ib := &rm.SimpleLogger{L: log, Txn: 1}
	const n = 2000
	ents := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		ents = append(ents, Entry{Key: keyOf(i), RID: ridOf(i)})
	}
	cur := &IBCursor{}
	res, conflict, _, err := tr.IBInsertBatch(ib, ents, cur)
	if err != nil || conflict != nil {
		t.Fatal(err, conflict)
	}
	if res.Inserted != n {
		t.Fatalf("inserted %d, want %d", res.Inserted, n)
	}
	if hits := tr.Stats.FastPathHits.Load(); hits == 0 {
		t.Error("remembered-path fast path never hit on ascending inserts")
	}
	checkInvariants(t, tr)
	live, _, _ := tr.CountEntries()
	if live != n {
		t.Fatalf("live entries = %d, want %d", live, n)
	}
	// Multi-key log records were used: far fewer MultiInsert records than keys.
	st := log.Stats()
	multi := st.TypeStat(wal.TypeIdxMultiInsert).Records
	if multi == 0 || multi > uint64(n/2) {
		t.Fatalf("multi-insert records = %d for %d keys", multi, n)
	}
}

func TestIBSpecializedSplitClustering(t *testing.T) {
	// With ascending IB inserts and the cut-at-position split, leaves should
	// come out almost perfectly in physical order.
	_, log, _, tr := newTree(t, false, smallBudget)
	ib := &rm.SimpleLogger{L: log, Txn: 1}
	cur := &IBCursor{}
	for i := 0; i < 3000; i++ {
		_, conflict, _, err := tr.IBInsertBatch(ib, []Entry{{Key: keyOf(i), RID: ridOf(i)}}, cur)
		if err != nil || conflict != nil {
			t.Fatal(err, conflict)
		}
	}
	checkInvariants(t, tr)
	pages, err := tr.LeafPages()
	if err != nil {
		t.Fatal(err)
	}
	asc := 0
	for i := 1; i < len(pages); i++ {
		if pages[i] > pages[i-1] {
			asc++
		}
	}
	frac := float64(asc) / float64(len(pages)-1)
	if frac < 0.9 {
		t.Fatalf("clustering %.2f, want >= 0.9 for pure IB build", frac)
	}
}

func TestConcurrentInsertersDisjointKeys(t *testing.T) {
	_, log, _, tr := newTree(t, false, 2048)
	const workers = 8
	const per = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &rm.SimpleLogger{L: log, Txn: types.TxnID(w + 1)}
			for i := 0; i < per; i++ {
				id := w*per + i
				r, conflict, err := tr.TxnInsert(tl, keyOf(id), ridOf(id))
				if err != nil || conflict != nil || r != Inserted {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	live, _, _ := tr.CountEntries()
	if live != workers*per {
		t.Fatalf("live = %d, want %d", live, workers*per)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	_, log, _, tr := newTree(t, false, 2048)
	pre := &rm.SimpleLogger{L: log, Txn: 99}
	for i := 0; i < 1000; i++ {
		tr.TxnInsert(pre, keyOf(i), ridOf(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &rm.SimpleLogger{L: log, Txn: types.TxnID(w + 1)}
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				id := rng.Intn(2000)
				switch rng.Intn(3) {
				case 0:
					tr.TxnInsert(tl, keyOf(id), ridOf(id))
				case 1:
					tr.TxnPseudoDelete(tl, keyOf(id), ridOf(id))
				case 2:
					tr.SearchEntry(keyOf(id), ridOf(id))
				}
			}
		}(w)
	}
	wg.Wait()
	checkInvariants(t, tr)
}

func TestGCCollectsCommittedOnly(t *testing.T) {
	_, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	for i := 0; i < 100; i++ {
		tr.TxnInsert(tl, keyOf(i), ridOf(i))
	}
	for i := 0; i < 50; i++ {
		tr.TxnPseudoDelete(tl, keyOf(i), ridOf(i))
	}
	// Keys 0..24 committed, 25..49 "uncommitted" per the lock callback.
	res, err := tr.GC(tl, nil, func(key []byte, rid types.RID) bool {
		return string(key) < string(keyOf(25))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collected != 25 || res.Skipped != 25 {
		t.Fatalf("GC = %+v, want 25 collected, 25 skipped", res)
	}
	live, pseudo, _ := tr.CountEntries()
	if live != 50 || pseudo != 25 {
		t.Fatalf("after GC: live=%d pseudo=%d, want 50, 25", live, pseudo)
	}
	checkInvariants(t, tr)

	// Commit_LSN fast path: treat every page as committed.
	res, err = tr.GC(tl, func(types.LSN) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collected != 25 {
		t.Fatalf("GC fast path collected %d, want 25", res.Collected)
	}
	_, pseudo, _ = tr.CountEntries()
	if pseudo != 0 {
		t.Fatalf("pseudo after full GC = %d", pseudo)
	}
}

func TestUndoOperations(t *testing.T) {
	_, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}

	// Undo insert -> pseudo-delete.
	tr.TxnInsert(tl, keyOf(1), ridOf(1))
	if err := tr.UndoInsert(tl, EntryPayload{Key: keyOf(1), RID: ridOf(1)}, types.NilLSN); err != nil {
		t.Fatal(err)
	}
	_, pseudo, _ := tr.SearchEntry(keyOf(1), ridOf(1))
	if !pseudo {
		t.Fatal("undo insert should pseudo-delete")
	}

	// Undo pseudo-delete -> reactivate.
	tr.TxnInsert(tl, keyOf(2), ridOf(2))
	tr.TxnPseudoDelete(tl, keyOf(2), ridOf(2))
	if err := tr.UndoPseudoDelete(tl, EntryPayload{Key: keyOf(2), RID: ridOf(2)}, types.NilLSN); err != nil {
		t.Fatal(err)
	}
	_, pseudo, _ = tr.SearchEntry(keyOf(2), ridOf(2))
	if pseudo {
		t.Fatal("undo pseudo-delete should reactivate")
	}

	// Undo tombstone insert -> reactivate (put in inserted state).
	tr.TxnPseudoDelete(tl, keyOf(3), ridOf(3)) // tombstone
	if err := tr.UndoInsert(tl, EntryPayload{Key: keyOf(3), RID: ridOf(3), Pseudo: true}, types.NilLSN); err != nil {
		t.Fatal(err)
	}
	found, pseudo, _ := tr.SearchEntry(keyOf(3), ridOf(3))
	if !found || pseudo {
		t.Fatal("undo tombstone insert should leave key in inserted state")
	}

	// Undo multi-insert -> physical removal.
	ib := &rm.SimpleLogger{L: log, Txn: 2}
	cur := &IBCursor{}
	tr.IBInsertBatch(ib, []Entry{{Key: keyOf(10), RID: ridOf(10)}, {Key: keyOf(11), RID: ridOf(11)}}, cur)
	pl := MultiInsertPayload{Entries: []Entry{{Key: keyOf(10), RID: ridOf(10)}, {Key: keyOf(11), RID: ridOf(11)}}}
	if err := tr.UndoMultiInsert(ib, pl, types.NilLSN); err != nil {
		t.Fatal(err)
	}
	if found, _, _ := tr.SearchEntry(keyOf(10), ridOf(10)); found {
		t.Fatal("undo multi-insert left entry behind")
	}

	// Undo physical remove -> reinsert.
	tr.TxnInsert(tl, keyOf(20), ridOf(20))
	tr.RemoveEntry(tl, keyOf(20), ridOf(20))
	if err := tr.UndoRemoveEntry(tl, EntryPayload{Key: keyOf(20), RID: ridOf(20)}, types.NilLSN); err != nil {
		t.Fatal(err)
	}
	found, pseudo, _ = tr.SearchEntry(keyOf(20), ridOf(20))
	if !found || pseudo {
		t.Fatal("undo remove did not reinsert")
	}
	checkInvariants(t, tr)
}

func TestRedoRebuildsTree(t *testing.T) {
	fs, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	const n = 800
	for i := 0; i < n; i++ {
		if _, _, err := tr.TxnInsert(tl, keyOf(i), ridOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		tr.TxnPseudoDelete(tl, keyOf(i), ridOf(i))
	}
	// Log forced, data pages NOT flushed.
	log.ForceAll()
	fs.Crash()
	fs.Recover()

	log2, _ := wal.Open(fs)
	pool2 := buffer.New(fs, log2, 256)
	it, _ := log2.NewIterator(1)
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		switch r.Type {
		case wal.TypeIdxFormat, wal.TypeIdxInsert, wal.TypeIdxMultiInsert, wal.TypeIdxDelete,
			wal.TypeIdxPseudoDel, wal.TypeIdxReactivate, wal.TypeIdxSplit, wal.TypeIdxNewRoot,
			wal.TypeIdxInsertNoop:
			if err := Redo(pool2, &r); err != nil {
				t.Fatalf("redo %s: %v", &r, err)
			}
		}
	}
	tr2, err := Open(pool2, 7, Config{Budget: smallBudget})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr2)
	live, pseudo, _ := tr2.CountEntries()
	if live != n-100 || pseudo != 100 {
		t.Fatalf("after redo: live=%d pseudo=%d, want %d, 100", live, pseudo, n-100)
	}
	for i := 0; i < n; i++ {
		found, ps, _ := tr2.SearchEntry(keyOf(i), ridOf(i))
		if !found || ps != (i < 100) {
			t.Fatalf("key %d after redo: found=%v pseudo=%v", i, found, ps)
		}
	}
}

func TestRedoIdempotent(t *testing.T) {
	_, log, pool, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	for i := 0; i < 300; i++ {
		tr.TxnInsert(tl, keyOf(i), ridOf(i))
	}
	// Re-apply the log to the live pool: PageLSN guards make it a no-op.
	it, _ := log.NewIterator(1)
	for {
		r, ok, _ := it.Next()
		if !ok {
			break
		}
		switch r.Type {
		case wal.TypeIdxFormat, wal.TypeIdxInsert, wal.TypeIdxSplit, wal.TypeIdxNewRoot:
			if err := Redo(pool, &r); err != nil {
				t.Fatalf("re-redo %s: %v", &r, err)
			}
		}
	}
	checkInvariants(t, tr)
	live, _, _ := tr.CountEntries()
	if live != 300 {
		t.Fatalf("live = %d after re-redo, want 300", live)
	}
}

func TestLoaderBottomUp(t *testing.T) {
	_, _, _, tr := newTree(t, false, smallBudget)
	ld := tr.NewLoader(0.9)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := ld.Add(Entry{Key: keyOf(i), RID: ridOf(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Finish(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	live, _, _ := tr.CountEntries()
	if live != n {
		t.Fatalf("live = %d, want %d", live, n)
	}
	// Bottom-up build yields perfectly ascending leaf pages.
	pages, _ := tr.LeafPages()
	for i := 1; i < len(pages); i++ {
		if pages[i] <= pages[i-1] {
			t.Fatalf("bottom-up leaves not ascending: %v then %v", pages[i-1], pages[i])
		}
	}
	if tr.Stats.Descents.Load() > 5 {
		// Loader never traverses; only the verification scans do.
		t.Logf("descents = %d (verification only)", tr.Stats.Descents.Load())
	}
}

func TestLoaderOutOfOrderRejected(t *testing.T) {
	_, _, _, tr := newTree(t, false, smallBudget)
	ld := tr.NewLoader(0.9)
	ld.Add(Entry{Key: keyOf(5), RID: ridOf(5)})
	if err := ld.Add(Entry{Key: keyOf(4), RID: ridOf(4)}); err == nil {
		t.Fatal("out-of-order add accepted")
	}
	// Exact duplicate is tolerated (restart replay).
	if err := ld.Add(Entry{Key: keyOf(5), RID: ridOf(5)}); err != nil {
		t.Fatal(err)
	}
	if ld.Count() != 1 {
		t.Fatalf("count = %d, want 1", ld.Count())
	}
}

func TestLoaderCheckpointRestart(t *testing.T) {
	fs, log, pool, tr := newTree(t, false, smallBudget)
	_ = pool
	ld := tr.NewLoader(0.9)
	const n = 4000
	const ckptAt = 2500
	var st LoaderState
	for i := 0; i < n; i++ {
		if err := ld.Add(Entry{Key: keyOf(i), RID: ridOf(i)}); err != nil {
			t.Fatal(err)
		}
		if i == ckptAt-1 {
			s, err := ld.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			st = s
		}
	}
	// Crash before finishing. Unflushed post-checkpoint pages are lost.
	log.ForceAll()
	fs.Crash()
	fs.Recover()

	log2, _ := wal.Open(fs)
	pool2 := buffer.New(fs, log2, 256)
	tr2, err := Open(pool2, 7, Config{Budget: smallBudget})
	if err != nil {
		t.Fatal(err)
	}
	ld2, err := tr2.RestartLoader(st, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ld2.Count() != ckptAt {
		t.Fatalf("restarted count = %d, want %d", ld2.Count(), ckptAt)
	}
	// Resume the stream from just after the checkpointed high key.
	for i := ckptAt; i < n; i++ {
		if err := ld2.Add(Entry{Key: keyOf(i), RID: ridOf(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld2.Finish(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr2)
	live, _, _ := tr2.CountEntries()
	if live != n {
		t.Fatalf("live after restart = %d, want %d", live, n)
	}
	for _, i := range []int{0, ckptAt - 1, ckptAt, n - 1} {
		found, _, _ := tr2.SearchEntry(keyOf(i), ridOf(i))
		if !found {
			t.Fatalf("key %d missing after restarted load", i)
		}
	}
}

func TestEmptyLoaderFinish(t *testing.T) {
	_, _, _, tr := newTree(t, false, smallBudget)
	ld := tr.NewLoader(0.9)
	if err := ld.Finish(); err != nil {
		t.Fatal(err)
	}
	live, pseudo, _ := tr.CountEntries()
	if live != 0 || pseudo != 0 {
		t.Fatal("empty load produced entries")
	}
}

func TestNodeMarshalRoundTrip(t *testing.T) {
	leaf := NewLeaf()
	leaf.next = 42
	for i := 0; i < 20; i++ {
		leaf.insertEntryAt(i, Entry{Key: keyOf(i), RID: ridOf(i), Pseudo: i%3 == 0})
	}
	img, err := leaf.MarshalPage()
	if err != nil {
		t.Fatal(err)
	}
	var back Node
	if err := back.UnmarshalPage(img); err != nil {
		t.Fatal(err)
	}
	if !back.leaf || back.next != 42 || len(back.entries) != 20 || back.used != leaf.used {
		t.Fatalf("leaf round trip mismatch: %+v", back)
	}
	for i := range leaf.entries {
		a, b := leaf.entries[i], back.entries[i]
		if string(a.Key) != string(b.Key) || a.RID != b.RID || a.Pseudo != b.Pseudo {
			t.Fatalf("entry %d mismatch", i)
		}
	}

	intl := NewInternal([]types.PageNum{1, 2, 3}, []sep{{key: keyOf(1), rid: ridOf(1)}, {key: keyOf(2), rid: ridOf(2)}})
	img, err = intl.MarshalPage()
	if err != nil {
		t.Fatal(err)
	}
	var back2 Node
	if err := back2.UnmarshalPage(img); err != nil {
		t.Fatal(err)
	}
	if back2.leaf || len(back2.children) != 3 || len(back2.seps) != 2 || back2.used != intl.used {
		t.Fatalf("internal round trip mismatch: %+v", back2)
	}
}

func TestScanRangeBounds(t *testing.T) {
	_, log, _, tr := newTree(t, false, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	for i := 0; i < 100; i++ {
		tr.TxnInsert(tl, keyOf(i), ridOf(i))
	}
	var got []string
	tr.ScanRange(keyOf(10), keyOf(19), func(e Entry) bool {
		got = append(got, string(e.Key))
		return true
	})
	if len(got) != 10 || got[0] != string(keyOf(10)) || got[9] != string(keyOf(19)) {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	count := 0
	tr.ScanRange(nil, nil, func(e Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop scanned %d", count)
	}
}

func TestCreateOnNonEmptyFileFails(t *testing.T) {
	fs := vfs.NewMemFS()
	log, _ := wal.Open(fs)
	pool := buffer.New(fs, log, 64)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	if _, err := Create(pool, 7, Config{}, tl); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(pool, 7, Config{}, tl); err == nil {
		t.Fatal("second create on same file should fail")
	}
	if _, err := Open(pool, 8, Config{}); err == nil {
		t.Fatal("open of missing tree should fail")
	}
}

func TestErrTooManyDuplicatesGuard(t *testing.T) {
	// Unique tree with a long pseudo run crossing many leaves.
	_, log, _, tr := newTree(t, true, smallBudget)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	// Build many tombstones under one key value via tombstone inserts.
	for i := 0; i < 500; i++ {
		if _, err := tr.TxnPseudoDelete(tl, []byte("hot"), ridOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := tr.TxnInsert(tl, []byte("hot"), ridOf(9999))
	if !errors.Is(err, ErrTooManyDuplicates) {
		// Either outcome (conflict or guard) is acceptable once the run is
		// bounded; the guard must fire before unbounded work.
		t.Logf("insert over hot run: err=%v (guard may return conflict instead)", err)
	}
}
