package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

// checkpointDML returns a deterministic OnCheckpoint mutator: an insert and an
// in-place-key update at every builder checkpoint, so the online builds
// below race real DML.
func checkpointDML(db *engine.DB, rids []types.RID) func(engine.IBPhase) error {
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

// fullRecordBytes reads back every run file the build left under its sort
// prefix and returns what the same items would take as length-prefixed
// full records: Σ(4 + len(item)).
func fullRecordBytes(t *testing.T, db *engine.DB, ix catalog.Index) uint64 {
	t.Helper()
	names, err := db.FS().List()
	if err != nil {
		t.Fatal(err)
	}
	var full uint64
	for _, name := range names {
		if !strings.HasPrefix(name, sortPrefix(ix.ID)+"-run-") {
			continue
		}
		m, err := extsort.NewMerger(db.FS(), []extsort.RunMeta{{Name: name}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			item, _, ok, err := m.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			full += uint64(4 + len(item))
		}
		m.Close()
	}
	return full
}

func TestCompressedBuildDifferential(t *testing.T) {
	// End-to-end oracle for the prefix-delta format: for every build
	// method, unique and non-unique, on two-column composite keys, a build
	// under checkpoint DML must produce an index that matches the table
	// entry for entry — while spilling at most 80% of what full
	// length-prefixed records of the same items would take.
	// Spill sizes are deterministic byte counts, so the bound needs no
	// quiet machine.
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		for _, unique := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/unique=%v", method, unique), func(t *testing.T) {
				db, rids := newDB(t, 1200)
				opts := Options{SortMemory: 64, CheckpointPages: 4, CheckpointKeys: 300}
				if method != catalog.MethodOffline {
					// Offline quiesces the table; checkpoint DML would
					// deadlock on it.
					opts.OnCheckpoint = checkpointDML(db, rids)
				}
				cols := []string{"name", "qty"}
				if unique {
					cols = []string{"id", "qty"}
				}
				res, err := Build(db, engine.CreateIndexSpec{Name: "by_x", Table: "items",
					Columns: cols, Unique: unique, Method: method}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.CheckIndexConsistency("by_x"); err != nil {
					t.Fatal(err)
				}
				spilled, full := res.Stats.BytesSpilled, fullRecordBytes(t, db, res.Index)
				if spilled == 0 || full == 0 {
					t.Fatalf("no spill measured (%d bytes, %d as full records); SortMemory too large for the row count",
						spilled, full)
				}
				pct := 100 * float64(spilled) / float64(full)
				if pct > 80 {
					t.Fatalf("spill is %.1f%% of full records (%d vs %d bytes), want <= 80%%", pct, spilled, full)
				}
				t.Logf("spilled %d bytes, %d as full records (%.1f%%)", spilled, full, pct)
			})
		}
	}
}

func TestResumeRefusesOldFormat(t *testing.T) {
	// A build checkpointed before prefix-delta runs became the only format
	// carries untagged sort or merge states. Resume must refuse them with
	// extsort.ErrOldFormat rather than decode the runs as the new format.
	fs := vfs.NewMemFS()
	cfg := engine.Config{FS: fs, PoolSize: 512, TreeBudget: 1024}
	db, err := engine.Open(cfg)
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
	opts := Options{SortMemory: 32, CheckpointPages: 2, CheckpointKeys: 200}
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

	db2, err := engine.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := db2.PendingBuilds()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].State == nil {
		t.Fatalf("pending builds = %+v, want one checkpointed build", pending)
	}
	// The retired encodings are the tagged ones minus their leading u32
	// sentinel.
	st := pending[0].State
	switch st.Phase {
	case engine.IBPhaseScan:
		st.SortState = st.SortState[4:]
	case engine.IBPhaseInsert, engine.IBPhaseLoad:
		st.MergeState = st.MergeState[4:]
	default:
		t.Fatalf("checkpoint in phase %v carries no run state", st.Phase)
	}
	if _, err := Resume(db2, pending[0], Options{SortMemory: 32}); !errors.Is(err, extsort.ErrOldFormat) {
		t.Fatalf("resume of a %v-phase old-format state: got %v, want extsort.ErrOldFormat", st.Phase, err)
	}
}
