package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/keyenc"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

func schema() catalog.Schema {
	return catalog.Schema{
		{Name: "id", Kind: keyenc.KindInt64},
		{Name: "name", Kind: keyenc.KindString},
		{Name: "qty", Kind: keyenc.KindInt64},
	}
}

func rowOf(id int64, name string, qty int64) engine.Row {
	return engine.Row{keyenc.Int64(id), keyenc.String(name), keyenc.Int64(qty)}
}

func nameOf(i int) string { return fmt.Sprintf("name-%06d", i) }

// newDB opens a DB with a populated "items" table of n rows and returns the
// RIDs.
func newDB(t testing.TB, n int) (*engine.DB, []types.RID) {
	t.Helper()
	db, err := engine.Open(engine.Config{FS: vfs.NewMemFS(), PoolSize: 512, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("items", schema()); err != nil {
		t.Fatal(err)
	}
	rids := make([]types.RID, 0, n)
	for i := 0; i < n; i++ {
		tx := db.Begin()
		rid, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), int64(i%97)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	return db, rids
}

func spec(name string, method catalog.BuildMethod, unique bool) engine.CreateIndexSpec {
	cols := []string{"name"}
	if unique {
		cols = []string{"id"}
	}
	return engine.CreateIndexSpec{Name: name, Table: "items", Columns: cols, Unique: unique, Method: method}
}

func TestBuildQuietTable(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, _ := newDB(t, 2000)
			res, err := Build(db, spec("by_name", method, false), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Index.State != catalog.StateComplete {
				t.Fatalf("state = %v", res.Index.State)
			}
			if res.Stats.KeysInserted != 2000 {
				t.Fatalf("inserted = %d, want 2000", res.Stats.KeysInserted)
			}
			if err := db.CheckIndexConsistency("by_name"); err != nil {
				t.Fatal(err)
			}
			// The index is usable.
			tx := db.Begin()
			rids, err := db.IndexLookup(tx, "by_name", keyenc.String(nameOf(777)))
			if err != nil || len(rids) != 1 {
				t.Fatalf("lookup: %v, %v", rids, err)
			}
			tx.Commit()
		})
	}
}

func TestBuildUniqueQuietTable(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, _ := newDB(t, 500)
			if _, err := Build(db, spec("uniq_id", method, true), Options{}); err != nil {
				t.Fatal(err)
			}
			if err := db.CheckIndexConsistency("uniq_id"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBuildUniqueDetectsDuplicates(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, _ := newDB(t, 100)
			// Add a duplicate id.
			tx := db.Begin()
			if _, err := db.Insert(tx, "items", rowOf(42, "dup", 0)); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			_, err := Build(db, spec("uniq_id", method, true), Options{})
			var uv *engine.UniqueViolationError
			if !errors.As(err, &uv) && !errors.Is(err, ErrBuildCancelled) {
				t.Fatalf("err = %v, want unique violation / cancelled", err)
			}
			if err == nil {
				t.Fatal("duplicate table accepted by unique build")
			}
			// The descriptor is gone; updates keep working.
			if _, ok := db.Catalog().Index("uniq_id"); ok {
				t.Fatal("cancelled index still in catalog")
			}
			tx2 := db.Begin()
			if _, err := db.Insert(tx2, "items", rowOf(9999, "after", 0)); err != nil {
				t.Fatal(err)
			}
			tx2.Commit()
		})
	}
}

// workload runs concurrent inserts/deletes/updates against the items table
// until stop is closed, returning counters.
type workloadStats struct {
	inserts, deletes, updates, rollbacks int
}

func runWorkload(t testing.TB, db *engine.DB, rids []types.RID, workers int, stop chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			nextID := int64(1_000_000 + w*100_000)
			myRIDs := append([]types.RID(nil), rids[w*len(rids)/workers:(w+1)*len(rids)/workers]...)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Pace the workload so the builder always gets CPU even
				// under the race detector's ~20x slowdown; the throughput
				// experiments (which need an unthrottled load) live in the
				// benchmark harness, not here.
				time.Sleep(200 * time.Microsecond)
				tx := db.Begin()
				var err error
				rollback := rng.Intn(10) == 0
				switch rng.Intn(3) {
				case 0: // insert
					nextID++
					var rid types.RID
					rid, err = db.Insert(tx, "items", rowOf(nextID, fmt.Sprintf("w%d-new-%d", w, nextID), 0))
					if err == nil && !rollback {
						myRIDs = append(myRIDs, rid)
					}
				case 1: // delete
					if len(myRIDs) > 0 {
						k := rng.Intn(len(myRIDs))
						err = db.Delete(tx, "items", myRIDs[k])
						if err == nil && !rollback {
							myRIDs = append(myRIDs[:k], myRIDs[k+1:]...)
						}
					}
				case 2: // update (key change)
					if len(myRIDs) > 0 {
						k := rng.Intn(len(myRIDs))
						nextID++
						var newRID types.RID
						newRID, err = db.Update(tx, "items", myRIDs[k], rowOf(nextID, fmt.Sprintf("w%d-upd-%d", w, nextID), 1))
						if err == nil && !rollback {
							myRIDs[k] = newRID
						}
					}
				}
				stopped := func() bool {
					select {
					case <-stop:
						return true
					default:
						return false
					}
				}
				if err != nil {
					tx.Rollback()
					if !stopped() {
						t.Errorf("workload op: %v", err)
					}
					return
				}
				if rollback {
					if err := tx.Rollback(); err != nil {
						if !stopped() {
							t.Errorf("rollback: %v", err)
						}
						return
					}
				} else if err := tx.Commit(); err != nil {
					if !stopped() {
						t.Errorf("commit: %v", err)
					}
					return
				}
			}
		}(w)
	}
	return &wg
}

func TestBuildWithConcurrentUpdates(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, rids := newDB(t, 3000)
			stop := make(chan struct{})
			wg := runWorkload(t, db, rids, 4, stop)

			res, err := Build(db, spec("by_name", method, false), Options{
				CheckpointPages: 8, CheckpointKeys: 500,
			})
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			_ = res
			if err := db.CheckIndexConsistency("by_name"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBuildSFWithSortedSideFile(t *testing.T) {
	db, rids := newDB(t, 2000)
	stop := make(chan struct{})
	wg := runWorkload(t, db, rids, 4, stop)
	res, err := Build(db, spec("by_name", catalog.MethodSF, false), Options{SortSideFile: true})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	_ = res
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUniqueWithConcurrentUpdates(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, rids := newDB(t, 1500)
			stop := make(chan struct{})
			wg := runWorkload(t, db, rids, 3, stop)
			_, err := Build(db, spec("uniq_id", method, true), Options{CheckpointKeys: 400})
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			if err := db.CheckIndexConsistency("uniq_id"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPaperExampleNineSteps(t *testing.T) {
	// The §2.2.3 worked example, against an NSF-building index:
	//  1. T1 inserts record (RID R, key K); 2. T1 inserts the key;
	//  3-4. IB's insert of the same key is rejected; 5-6. T1 rolls back,
	//  pseudo-deleting the key; 7-8. T2 inserts at the same RID and key,
	//  reactivating the entry; 9. T2 commits.
	db, _ := newDB(t, 10)
	s, err := Start(db, []engine.CreateIndexSpec{spec("by_name", catalog.MethodNSF, false)}, []Options{{}})
	if err != nil {
		t.Fatal(err)
	}
	ix := s.bs[0].ix
	tree, _ := db.TreeOf(ix.ID)

	// 1-2: T1 inserts; the index is visible for updates.
	t1 := db.Begin()
	rid, err := db.Insert(t1, "items", rowOf(100, "K", 0))
	if err != nil {
		t.Fatal(err)
	}
	key, _ := engine.IndexKeyFromRecord(&ix, engine.EncodeRow(rowOf(100, "K", 0)))
	found, pseudo, _ := tree.SearchEntry(key, rid)
	if !found || pseudo {
		t.Fatal("step 2: T1's key not live in index")
	}

	// 3-4: IB tries to insert the same key; rejected without any logging.
	ibTx := db.Begin()
	before := db.Log().Stats()
	cur := &btree.IBCursor{}
	resIB, conflict, _, err := tree.IBInsertBatch(ibTx, []btree.Entry{{Key: key, RID: rid}}, cur)
	if err != nil || conflict != nil {
		t.Fatal(err, conflict)
	}
	if resIB.Skipped != 1 || resIB.Inserted != 0 {
		t.Fatalf("step 4: IB duplicate handling = %+v", resIB)
	}
	if d := db.Log().Stats().Delta(before); d.Records != 0 {
		t.Fatalf("step 4: IB wrote %d log records for a rejected duplicate", d.Records)
	}
	ibTx.Rollback()

	// 5-6: T1 rolls back; the key becomes pseudo-deleted.
	if err := t1.Rollback(); err != nil {
		t.Fatal(err)
	}
	found, pseudo, _ = tree.SearchEntry(key, rid)
	if !found || !pseudo {
		t.Fatalf("step 6: key should be pseudo-deleted, found=%v pseudo=%v", found, pseudo)
	}
	if _, ok, _ := db.Get(db.Begin(), "items", rid); ok {
		t.Fatal("step 6: record should be gone")
	}

	// 7-8: T2 inserts the same key value; with slot reuse it may land on the
	// same RID, reactivating the pseudo-deleted entry.
	t2 := db.Begin()
	rid2, err := db.Insert(t2, "items", rowOf(100, "K", 0))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 == rid {
		found, pseudo, _ = tree.SearchEntry(key, rid)
		if !found || pseudo {
			t.Fatal("step 8: entry should be reactivated")
		}
	}
	// 9: T2 commits; <K, R> is in the index with a valid record.
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	found, pseudo, _ = tree.SearchEntry(key, rid2)
	if !found || pseudo {
		t.Fatal("step 9: final entry missing or pseudo")
	}
}

func TestCrashDuringScanAndResume(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			fs := vfs.NewMemFS()
			db, err := engine.Open(engine.Config{FS: fs, PoolSize: 512, TreeBudget: 1024})
			if err != nil {
				t.Fatal(err)
			}
			db.CreateTable("items", schema())
			for i := 0; i < 3000; i++ {
				tx := db.Begin()
				if _, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), 0)); err != nil {
					t.Fatal(err)
				}
				tx.Commit()
			}

			// Run the build in a goroutine and crash partway: the builder
			// goroutine will start failing; we only care about durable state.
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { recover() }() // the crash makes the builder panic-or-error; both fine
				Build(db, spec("by_name", method, false), Options{CheckpointPages: 4, CheckpointKeys: 300})
			}()
			// Let it make some progress, then pull the plug.
			for db.Log().Stats().Records < 100 {
			}
			db.Crash()
			<-done

			db2, err := engine.Recover(engine.Config{FS: fs, PoolSize: 512, TreeBudget: 1024})
			if err != nil {
				t.Fatal(err)
			}
			pending, err := db2.PendingBuilds()
			if err != nil {
				t.Fatal(err)
			}
			if len(pending) == 1 {
				if _, err := Resume(db2, pending[0], Options{CheckpointPages: 4, CheckpointKeys: 300}); err != nil {
					t.Fatal(err)
				}
			} else if len(pending) != 0 {
				t.Fatalf("pending builds = %d", len(pending))
			} else {
				// The crash hit before the descriptor was durable; rebuild.
				if _, err := Build(db2, spec("by_name", method, false), Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db2.CheckIndexConsistency("by_name"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGCAfterNSFBuildWithDeletes(t *testing.T) {
	db, rids := newDB(t, 1000)
	// Delete-heavy workload while building: pseudo-deleted keys accumulate.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := db.Begin()
			k := rng.Intn(len(rids))
			db.Delete(tx, "items", rids[k]) // double deletes just error; ignore
			tx.Commit()
		}
	}()
	res, err := Build(db, spec("by_name", catalog.MethodNSF, false), Options{GCAfterBuild: true})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
	t.Logf("GC collected %d, skipped %d", res.Stats.GC.Collected, res.Stats.GC.Skipped)
}

func TestBuildManySingleScan(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF, catalog.MethodOffline} {
		t.Run(method.String(), func(t *testing.T) {
			db, _ := newDB(t, 1500)
			specs := []engine.CreateIndexSpec{
				{Name: "m_name", Table: "items", Columns: []string{"name"}, Method: method},
				{Name: "m_qty", Table: "items", Columns: []string{"qty"}, Method: method},
				{Name: "m_id", Table: "items", Columns: []string{"id"}, Method: method},
			}
			results, err := BuildMany(db, specs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 3 {
				t.Fatalf("results = %d", len(results))
			}
			for _, name := range []string{"m_name", "m_qty", "m_id"} {
				if err := db.CheckIndexConsistency(name); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestCancelBuild(t *testing.T) {
	db, _ := newDB(t, 500)
	if _, err := Start(db, []engine.CreateIndexSpec{spec("doomed", catalog.MethodNSF, false)}, []Options{{}}); err != nil {
		t.Fatal(err)
	}
	if err := Cancel(db, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Catalog().Index("doomed"); ok {
		t.Fatal("cancelled index still visible")
	}
	// Table still fully usable.
	tx := db.Begin()
	if _, err := db.Insert(tx, "items", rowOf(7777, "post-cancel", 0)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
}
