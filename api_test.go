package onlineindex_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"onlineindex"
)

func apiDB(t *testing.T) *onlineindex.DB {
	t.Helper()
	db, err := onlineindex.Open(onlineindex.Config{PoolSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", onlineindex.Schema{
		{Name: "id", Kind: onlineindex.KindInt64},
		{Name: "name", Kind: onlineindex.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func apiRow(id int64) onlineindex.Row {
	return onlineindex.Row{onlineindex.Int64(id), onlineindex.String(fmt.Sprintf("n-%06d", id))}
}

func TestFacadeCRUDAndIndex(t *testing.T) {
	db := apiDB(t)
	var rids []onlineindex.RID
	for i := 0; i < 500; i++ {
		tx := db.Begin()
		rid, err := db.Insert(tx, "t", apiRow(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}

	res, err := db.BuildIndex(onlineindex.IndexSpec{
		Name: "by_name", Table: "t", Columns: []string{"name"}, Method: onlineindex.SF,
	}, onlineindex.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.KeysInserted != 500 {
		t.Fatalf("inserted = %d", res.Stats.KeysInserted)
	}

	tx := db.Begin()
	got, err := db.IndexLookup(tx, "by_name", onlineindex.String("n-000123"))
	if err != nil || len(got) != 1 || got[0] != rids[123] {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	// Range scan over the complete index.
	count := 0
	err = db.IndexScan(tx, "by_name",
		[]onlineindex.Value{onlineindex.String("n-000100")},
		[]onlineindex.Value{onlineindex.String("n-000199")},
		func(key []byte, rid onlineindex.RID) bool { count++; return true })
	if err != nil || count != 100 {
		t.Fatalf("scan = %d, %v", count, err)
	}
	tx.Commit()

	// Update + delete flow through index maintenance.
	tx2 := db.Begin()
	newRID, err := db.Update(tx2, "t", rids[7], apiRow(100_007))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(tx2, "t", newRID); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GC("by_name"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("by_name"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Index("by_name"); ok {
		t.Fatal("dropped index still visible")
	}
}

func TestFacadeCrashRecoverResume(t *testing.T) {
	fs := onlineindex.NewMemFS()
	db, err := onlineindex.Open(onlineindex.Config{FS: fs, PoolSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", onlineindex.Schema{
		{Name: "id", Kind: onlineindex.KindInt64},
		{Name: "name", Kind: onlineindex.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		tx := db.Begin()
		if _, err := db.Insert(tx, "t", apiRow(int64(i))); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		db.BuildIndex(onlineindex.IndexSpec{ //nolint:errcheck
			Name: "by_name", Table: "t", Columns: []string{"name"}, Method: onlineindex.NSF,
		}, onlineindex.BuildOptions{CheckpointPages: 2, CheckpointKeys: 200})
	}()
	time.Sleep(15 * time.Millisecond)
	db.Crash()
	<-done

	// Recover resumes pending builds automatically.
	db2, err := onlineindex.Recover(onlineindex.Config{FS: fs, PoolSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := db2.Index("by_name")
	if ok {
		// Build had gotten its descriptor durable; Recover must have
		// finished it.
		if err := db2.CheckIndexConsistency("by_name"); err != nil {
			t.Fatal(err)
		}
		_ = ix
	} else {
		// Crash preceded the descriptor; build anew.
		if _, err := db2.BuildIndex(onlineindex.IndexSpec{
			Name: "by_name", Table: "t", Columns: []string{"name"}, Method: onlineindex.NSF,
		}, onlineindex.BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	tx := db2.Begin()
	got, err := db2.IndexLookup(tx, "by_name", onlineindex.String("n-002222"))
	if err != nil || len(got) != 1 {
		t.Fatalf("post-recovery lookup = %v, %v", got, err)
	}
	tx.Commit()
}

func TestFacadeBuildIndexesAndCancel(t *testing.T) {
	db := apiDB(t)
	for i := 0; i < 800; i++ {
		tx := db.Begin()
		db.Insert(tx, "t", apiRow(int64(i))) //nolint:errcheck
		tx.Commit()
	}
	results, err := db.BuildIndexes([]onlineindex.IndexSpec{
		{Name: "m1", Table: "t", Columns: []string{"name"}, Method: onlineindex.NSF},
		{Name: "m2", Table: "t", Columns: []string{"id"}, Method: onlineindex.NSF},
	}, onlineindex.BuildOptions{})
	if err != nil || len(results) != 2 {
		t.Fatal(err)
	}
	for _, name := range []string{"m1", "m2"} {
		if err := db.CheckIndexConsistency(name); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeUniqueViolationSurfaced(t *testing.T) {
	db := apiDB(t)
	tx := db.Begin()
	db.Insert(tx, "t", apiRow(5))                                                          //nolint:errcheck
	db.Insert(tx, "t", onlineindex.Row{onlineindex.Int64(5), onlineindex.String("other")}) //nolint:errcheck
	tx.Commit()
	_, err := db.BuildIndex(onlineindex.IndexSpec{
		Name: "uniq", Table: "t", Columns: []string{"id"}, Unique: true, Method: onlineindex.SF,
	}, onlineindex.BuildOptions{})
	var uv *onlineindex.UniqueViolationError
	if err == nil || !errorsAs(err, &uv) {
		t.Fatalf("err = %v, want UniqueViolationError in chain", err)
	}
}

func errorsAs(err error, target any) bool {
	return errors.As(err, target.(**onlineindex.UniqueViolationError))
}

func TestFacadeConcurrentUse(t *testing.T) {
	db := apiDB(t)
	var rids []onlineindex.RID
	for i := 0; i < 1000; i++ {
		tx := db.Begin()
		rid, _ := db.Insert(tx, "t", apiRow(int64(i)))
		tx.Commit()
		rids = append(rids, rid)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := int64(50_000 * (w + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(200 * time.Microsecond)
				id++
				tx := db.Begin()
				if _, err := db.Insert(tx, "t", apiRow(id)); err != nil {
					tx.Rollback()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	_, err := db.BuildIndex(onlineindex.IndexSpec{
		Name: "by_name", Table: "t", Columns: []string{"name"}, Method: onlineindex.SF,
	}, onlineindex.BuildOptions{})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
	_ = rids
}

// TestFacadeBuildOptions exercises the options surface through the facade:
// CheckpointPages flows to the scan, and out-of-range options fail with
// ErrInvalidBuildOptions before any descriptor is created.
func TestFacadeBuildOptions(t *testing.T) {
	db := apiDB(t)
	// Enough rows for several heap pages, so the scan checkpoints.
	for i := 0; i < 3000; i++ {
		tx := db.Begin()
		if _, err := db.Insert(tx, "t", apiRow(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	spec := onlineindex.IndexSpec{
		Name: "by_name", Table: "t", Columns: []string{"name"}, Method: onlineindex.NSF,
	}
	if _, err := db.BuildIndex(spec, onlineindex.BuildOptions{SortMemory: -1}); !errors.Is(err, onlineindex.ErrInvalidBuildOptions) {
		t.Fatalf("err = %v, want ErrInvalidBuildOptions", err)
	}
	if _, ok := db.Index("by_name"); ok {
		t.Fatal("rejected build left a descriptor")
	}

	res, err := db.BuildIndex(spec, onlineindex.BuildOptions{CheckpointPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Checkpoints == 0 {
		t.Fatalf("no checkpoints at CheckpointPages 2 over %d pages", res.Stats.PagesScanned)
	}
	if err := db.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}
