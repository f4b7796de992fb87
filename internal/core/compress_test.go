package core

import (
	"bytes"
	"fmt"
	"testing"

	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

// compressDML returns a deterministic OnCheckpoint mutator: an insert and an
// in-place-key update at every builder checkpoint. Determinism matters here —
// the compressed and uncompressed builds each run it against their own DB,
// and the differential below compares the resulting indexes entry for entry.
func compressDML(db *engine.DB, rids []types.RID) func(engine.IBPhase) error {
	n := 0
	return func(engine.IBPhase) error {
		n++
		tx := db.Begin()
		if _, err := db.Insert(tx, "items", rowOf(int64(1_000_000+n), nameOf(1_000_000+n), int64(n))); err != nil {
			tx.Rollback() //nolint:errcheck
			return err
		}
		victim := rids[(37*n)%len(rids)]
		if _, err := db.Update(tx, "items", victim, rowOf(int64(2_000_000+n), nameOf(2_000_000+n), int64(n%7))); err != nil {
			tx.Rollback() //nolint:errcheck
			return err
		}
		return tx.Commit()
	}
}

func allEntries(t *testing.T, db *engine.DB, index string) []btree.Entry {
	t.Helper()
	ix, ok := db.Catalog().Index(index)
	if !ok {
		t.Fatalf("no index %q", index)
	}
	tree, err := db.TreeOf(ix.ID)
	if err != nil {
		t.Fatal(err)
	}
	var out []btree.Entry
	err = tree.ScanRange(nil, nil, func(e btree.Entry) bool {
		out = append(out, btree.Entry{Key: append([]byte(nil), e.Key...), RID: e.RID, Pseudo: e.Pseudo})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// buildOne seeds a fresh DB, runs one build with the given compression flag
// (mutating at checkpoints for the online methods), and returns the final
// index entries plus the build stats.
func buildOne(t *testing.T, method catalog.BuildMethod, unique, compress bool) ([]btree.Entry, Stats) {
	t.Helper()
	db, rids := newDB(t, 1200)
	opts := Options{SortMemory: 64, CheckpointPages: 4, CheckpointKeys: 300, CompressKeys: compress}
	if method != catalog.MethodOffline {
		// Offline quiesces the table; checkpoint DML would deadlock on it.
		opts.OnCheckpoint = compressDML(db, rids)
	}
	res, err := Build(db, spec("by_x", method, unique), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIndexConsistency("by_x"); err != nil {
		t.Fatalf("compress=%v: %v", compress, err)
	}
	return allEntries(t, db, "by_x"), res.Stats
}

func TestCompressedBuildDifferential(t *testing.T) {
	// The tentpole's end-to-end oracle: for every build method, unique and
	// non-unique, a compressed build over an identical history must produce
	// an index with exactly the same entries as an uncompressed one — while
	// spilling at most 80% of the uncompressed run bytes. Spill sizes are
	// deterministic byte counts, so the bound needs no quiet machine.
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		for _, unique := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/unique=%v", method, unique), func(t *testing.T) {
				plain, pst := buildOne(t, method, unique, false)
				comp, cst := buildOne(t, method, unique, true)
				if len(plain) != len(comp) {
					t.Fatalf("entry counts differ: %d uncompressed, %d compressed", len(plain), len(comp))
				}
				for i := range plain {
					if !bytes.Equal(plain[i].Key, comp[i].Key) || plain[i].RID != comp[i].RID || plain[i].Pseudo != comp[i].Pseudo {
						t.Fatalf("entry %d differs: %+v vs %+v", i, plain[i], comp[i])
					}
				}
				if pst.BytesSpilled == 0 || cst.BytesSpilled == 0 {
					t.Fatalf("no spill measured (plain=%d comp=%d); SortMemory too large for the row count",
						pst.BytesSpilled, cst.BytesSpilled)
				}
				pct := 100 * float64(cst.BytesSpilled) / float64(pst.BytesSpilled)
				if pct > 80 {
					t.Fatalf("compressed spill is %.1f%% of uncompressed (%d vs %d bytes), want <= 80%%",
						pct, cst.BytesSpilled, pst.BytesSpilled)
				}
				t.Logf("spilled %d vs %d bytes (%.1f%%)", cst.BytesSpilled, pst.BytesSpilled, pct)
			})
		}
	}
}

func TestCompressedResumeKeepsFormat(t *testing.T) {
	// A build checkpointed with CompressKeys on must keep the compressed run
	// and page formats when resumed with the flag off (the durable states
	// carry the bit; resume-time options must not corrupt the runs).
	fs := vfs.NewMemFS()
	db, err := engine.Open(engine.Config{FS: fs, PoolSize: 512, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("items", schema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		tx := db.Begin()
		if _, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), 0)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	opts := Options{SortMemory: 32, CheckpointPages: 2, CheckpointKeys: 200, CompressKeys: true}
	n := 0
	opts.OnCheckpoint = func(engine.IBPhase) error {
		if n++; n == 3 {
			db.Crash()
			return fmt.Errorf("crashed after checkpoint %d", n)
		}
		return nil
	}
	func() {
		defer func() { recover() }()                              // the dying incarnation may panic on I/O
		Build(db, spec("by_name", catalog.MethodSF, false), opts) //nolint:errcheck
	}()

	db2, err := engine.Recover(engine.Config{FS: fs, PoolSize: 512, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := db2.PendingBuilds()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("pending builds = %d, want 1", len(pending))
	}
	// Resume with compression off: the durable state's format must win.
	resumeOpts := Options{SortMemory: 32, CheckpointPages: 2, CheckpointKeys: 200, CompressKeys: false}
	if _, err := Resume(db2, pending[0], resumeOpts); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}
