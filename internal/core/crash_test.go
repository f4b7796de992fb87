package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

// crashAtPhase starts a build under a light workload, crashes the system the
// first time a committed builder checkpoint reaches the wanted phase, then
// recovers and resumes. It returns false if the build completed before the
// phase was observed (caller may retry with different tuning).
func crashAtPhase(t *testing.T, method catalog.BuildMethod, want engine.IBPhase, rows int, opts Options) bool {
	return crashAtPhaseStopEarly(t, method, want, 0, rows, opts)
}

// crashAtPhaseStopEarly additionally drains the workload as soon as the
// build reaches stopAt (0: drain right before the crash). Draining early
// lets the crash land immediately when the wanted phase appears — needed for
// short windows like side-file processing.
func crashAtPhaseStopEarly(t *testing.T, method catalog.BuildMethod, want, stopAt engine.IBPhase, rows int, opts Options) bool {
	t.Helper()
	fs := vfs.NewMemFS()
	db, err := engine.Open(engine.Config{FS: fs, PoolSize: 1024, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("items", schema())
	rids := make([]types.RID, 0, rows)
	for i := 0; i < rows; i++ {
		tx := db.Begin()
		rid, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		rids = append(rids, rid)
	}
	stop := make(chan struct{})
	wg := runWorkload(t, db, rids, 2, stop)

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		Build(db, spec("by_name", method, false), opts) //nolint:errcheck
	}()

	// Find the index id once the descriptor appears, then watch the
	// committed checkpoints for the wanted phase.
	var ixID types.IndexID
	deadline := time.Now().Add(20 * time.Second)
	hit := false
	drained := false
	drain := func() {
		if !drained {
			close(stop)
			wg.Wait()
			drained = true
		}
	}
	for time.Now().Before(deadline) {
		if ixID == 0 {
			if ix, ok := db.Catalog().Index("by_name"); ok {
				ixID = ix.ID
			}
		}
		if ixID != 0 {
			if ix, ok := db.Catalog().Index("by_name"); ok && ix.State == catalog.StateComplete {
				break // finished before the phase was seen
			}
			if st := db.LastIBState(ixID); st != nil {
				if stopAt != 0 && st.Phase >= stopAt {
					// Drain the workload early so the crash below can land
					// the instant the wanted phase appears.
					drain()
				}
				if st.Phase == want {
					hit = true
					break
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	if hit && drained {
		db.Crash() // land the crash immediately: the workload is already gone
	} else {
		// Drain the workload before pulling the plug: a worker blocked on a
		// lock held by the about-to-die builder would never wake (its waiter
		// lives in the old incarnation's volatile lock manager).
		drain()
		db.Crash()
	}
	<-done
	if !hit {
		return false
	}

	db2, err := engine.Recover(engine.Config{FS: fs, PoolSize: 1024, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := db2.PendingBuilds()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) == 0 {
		// The builder finished (and durably committed completion) during
		// the workload drain between observation and the crash. The index
		// must then be complete and consistent; the phase-targeted crash
		// didn't land, so report a miss.
		ix, ok := db2.Catalog().Index("by_name")
		if !ok || ix.State != catalog.StateComplete {
			t.Fatalf("no pending build but index state = %v ok=%v", ix.State, ok)
		}
		if err := db2.CheckIndexConsistency("by_name"); err != nil {
			t.Fatal(err)
		}
		return false
	}
	if pending[0].State == nil || pending[0].State.Phase != want {
		t.Fatalf("recovered phase = %+v, want %v", pending[0].State, want)
	}
	if _, err := Resume(db2, pending[0], opts); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
	// The resumed database keeps working (direct maintenance now).
	tx := db2.Begin()
	if _, err := db2.Insert(tx, "items", rowOf(99_999_999, "post-resume", 0)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if err := db2.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
	return true
}

func TestCrashAtScanPhaseAndResume(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", method, workers), func(t *testing.T) {
				ok := crashAtPhase(t, method, engine.IBPhaseScan, 6000,
					Options{CheckpointPages: 2, CheckpointKeys: 100_000, ScanWorkers: workers})
				if !ok {
					t.Skip("build completed before the scan checkpoint was observed")
				}
			})
		}
	}
}

// TestCrashMidScanParallelResumeByteIdentical crashes a ScanWorkers=4 build
// mid-scan, resumes it from the pipeline's watermark checkpoint (still at 4
// workers), and requires the final index to be byte-identical — same entry
// stream, same page count — to an uninterrupted single-worker build of an
// identically populated table. This is what "checkpoints cover only the
// drained watermark" buys: worker count and crash point are unobservable in
// the result.
func TestCrashMidScanParallelResumeByteIdentical(t *testing.T) {
	const rows = 20_000
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			// Reference: uninterrupted, serial scan.
			refDB, _ := newDB(t, rows)
			refRes, err := Build(refDB, spec("by_name", method, false), Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := indexEntries(t, refDB, "by_name")
			refTree, err := refDB.TreeOf(refRes.Index.ID)
			if err != nil {
				t.Fatal(err)
			}
			refPages, err := refTree.PageCount()
			if err != nil {
				t.Fatal(err)
			}

			// Same table again; this build runs at 4 workers with frequent
			// scan checkpoints (each checkpoint commit forces the log, which
			// also keeps the scan phase long enough to crash into).
			fs := vfs.NewMemFS()
			db, err := engine.Open(engine.Config{FS: fs, PoolSize: 1024, TreeBudget: 1024})
			if err != nil {
				t.Fatal(err)
			}
			db.CreateTable("items", schema())
			for i := 0; i < rows; i++ {
				tx := db.Begin()
				if _, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), int64(i%97))); err != nil {
					t.Fatal(err)
				}
				tx.Commit()
			}
			opts := Options{ScanWorkers: 4, CheckpointPages: 2, CheckpointKeys: 100_000}
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { recover() }()
				Build(db, spec("by_name", method, false), opts) //nolint:errcheck
			}()
			var ixID types.IndexID
			deadline := time.Now().Add(20 * time.Second)
			hit := false
			for time.Now().Before(deadline) {
				if ixID == 0 {
					if ix, ok := db.Catalog().Index("by_name"); ok {
						ixID = ix.ID
					}
				}
				if ixID != 0 {
					if ix, ok := db.Catalog().Index("by_name"); ok && ix.State == catalog.StateComplete {
						break
					}
					if st := db.LastIBState(ixID); st != nil && st.Phase == engine.IBPhaseScan {
						hit = true
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
			}
			db.Crash()
			<-done
			if !hit {
				t.Skip("build completed before a scan checkpoint was observed")
			}

			db2, err := engine.Recover(engine.Config{FS: fs, PoolSize: 1024, TreeBudget: 1024})
			if err != nil {
				t.Fatal(err)
			}
			pending, err := db2.PendingBuilds()
			if err != nil {
				t.Fatal(err)
			}
			if len(pending) != 1 {
				t.Fatalf("pending = %d, want 1", len(pending))
			}
			if pending[0].State == nil || pending[0].State.Phase != engine.IBPhaseScan {
				t.Fatalf("recovered state = %+v, want mid-scan", pending[0].State)
			}
			if _, err := Resume(db2, pending[0], opts); err != nil {
				t.Fatal(err)
			}
			if err := db2.CheckIndexConsistency("by_name"); err != nil {
				t.Fatal(err)
			}
			got := indexEntries(t, db2, "by_name")
			if !bytes.Equal(got, ref) {
				t.Fatalf("resumed index entry stream differs from uninterrupted serial build (%d vs %d bytes)", len(got), len(ref))
			}
			ix2, _ := db2.Catalog().Index("by_name")
			tree2, err := db2.TreeOf(ix2.ID)
			if err != nil {
				t.Fatal(err)
			}
			pages2, err := tree2.PageCount()
			if err != nil {
				t.Fatal(err)
			}
			if pages2 != refPages {
				t.Fatalf("resumed index has %d pages, uninterrupted serial build had %d", pages2, refPages)
			}
		})
	}
}

func TestCrashAtInsertPhaseAndResumeNSF(t *testing.T) {
	ok := crashAtPhase(t, catalog.MethodNSF, engine.IBPhaseInsert, 50_000,
		Options{CheckpointKeys: 500})
	if !ok {
		t.Skip("build completed before an insert checkpoint was observed")
	}
}

func TestCrashAtLoadPhaseAndResumeSF(t *testing.T) {
	ok := crashAtPhase(t, catalog.MethodSF, engine.IBPhaseLoad, 50_000,
		Options{CheckpointKeys: 500})
	if !ok {
		t.Skip("build completed before a load checkpoint was observed")
	}
}

func TestCrashAtSideFilePhaseAndResumeSF(t *testing.T) {
	// Deterministic construction: once the build reaches its load phase
	// (Current-RID = infinity, so every operation is captured), the test
	// thread itself performs a burst of updates — guaranteeing a side-file
	// long enough that processing it spans several committed checkpoints,
	// one of which the crash then lands on.
	fs := vfs.NewMemFS()
	db, err := engine.Open(engine.Config{FS: fs, PoolSize: 2048, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("items", schema())
	const rows = 40_000
	for i := 0; i < rows; i++ {
		tx := db.Begin()
		if _, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), 0)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	opts := Options{CheckpointKeys: 100}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		Build(db, spec("by_name", catalog.MethodSF, false), opts) //nolint:errcheck
	}()

	// Wait for the load phase, then burst.
	var ixID types.IndexID
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if ixID == 0 {
			if ix, ok := db.Catalog().Index("by_name"); ok {
				ixID = ix.ID
			}
		}
		if ixID != 0 {
			if st := db.LastIBState(ixID); st != nil && st.Phase >= engine.IBPhaseLoad {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Burst inserts while watching for a mid-drain checkpoint (SFPos > 0):
	// the drain races the burst, so the check interleaves with the inserts
	// and the crash lands the instant such a checkpoint commits.
	burst := 0
	hit := false
	for i := 0; time.Now().Before(deadline); i++ {
		if ix, ok := db.Catalog().Index("by_name"); !ok || ix.State == catalog.StateComplete {
			break // too late: the build already finished
		}
		tx := db.Begin()
		if _, err := db.Insert(tx, "items", rowOf(int64(10_000_000+i), fmt.Sprintf("burst-%06d", i), 0)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		burst++
		if st := db.LastIBState(ixID); st != nil && st.Phase == engine.IBPhaseSideFile && st.SFPos > 0 {
			hit = true
			break
		}
	}
	db.Crash()
	<-done
	if !hit {
		t.Skipf("side-file drain outran the watcher (burst=%d)", burst)
	}

	db2, err := engine.Recover(engine.Config{FS: fs, PoolSize: 2048, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := db2.PendingBuilds()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(pending))
	}
	if pending[0].State == nil || pending[0].State.Phase != engine.IBPhaseSideFile || pending[0].State.SFPos == 0 {
		t.Fatalf("recovered state = %+v, want mid-side-file", pending[0].State)
	}
	if _, err := Resume(db2, pending[0], opts); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckIndexConsistency("by_name"); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCrashesSameBuild(t *testing.T) {
	// Crash, resume, crash the resume, resume again: checkpoints must keep
	// the build convergent across multiple failures.
	fs := vfs.NewMemFS()
	db, err := engine.Open(engine.Config{FS: fs, PoolSize: 1024, TreeBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("items", schema())
	const rows = 6000
	for i := 0; i < rows; i++ {
		tx := db.Begin()
		if _, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), 0)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	opts := Options{CheckpointPages: 2, CheckpointKeys: 300}

	launch := func(d *engine.DB, resume bool) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { recover() }()
			if resume {
				pending, err := d.PendingBuilds()
				if err != nil || len(pending) != 1 {
					return
				}
				Resume(d, pending[0], opts) //nolint:errcheck
			} else {
				Build(d, spec("by_name", catalog.MethodSF, false), opts) //nolint:errcheck
			}
		}()
		return done
	}

	done := launch(db, false)
	time.Sleep(20 * time.Millisecond)
	db.Crash()
	<-done

	for round := 0; round < 2; round++ {
		db2, err := engine.Recover(engine.Config{FS: fs, PoolSize: 1024, TreeBudget: 1024})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pending, err := db2.PendingBuilds()
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) == 0 {
			// Build had completed; verify and stop.
			if err := db2.CheckIndexConsistency("by_name"); err != nil {
				t.Fatal(err)
			}
			return
		}
		if round == 0 {
			done := launch(db2, true)
			time.Sleep(15 * time.Millisecond)
			db2.Crash()
			<-done
			continue
		}
		// Final round: run to completion.
		if _, err := Resume(db2, pending[0], opts); err != nil {
			t.Fatal(err)
		}
		if err := db2.CheckIndexConsistency("by_name"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildManyMidScanResume crashes a two-index BuildMany at a mid-scan
// checkpoint, once both indexes have checkpointed the shared scan's second
// drained watermark, and resumes each index: neither may rescan the whole
// table, and both must come out consistent.
func TestBuildManyMidScanResume(t *testing.T) {
	const rows = 3000
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := engine.Config{FS: fs, PoolSize: 512, TreeBudget: 1024}
			db, err := engine.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			db.CreateTable("items", schema())
			for i := 0; i < rows; i++ {
				tx := db.Begin()
				if _, err := db.Insert(tx, "items", rowOf(int64(i), nameOf(i), int64(i%97))); err != nil {
					t.Fatal(err)
				}
				tx.Commit()
			}
			specs := []engine.CreateIndexSpec{
				{Name: "m_name", Table: "items", Columns: []string{"name"}, Method: method},
				{Name: "m_qty", Table: "items", Columns: []string{"qty"}, Method: method},
			}
			opts := Options{CheckpointPages: 4, SerialFinish: true}
			scanCkpts := 0
			opts.OnCheckpoint = func(ph engine.IBPhase) error {
				if ph == engine.IBPhaseScan {
					scanCkpts++
				}
				if scanCkpts == 2*len(specs) {
					db.Crash()
					return vfs.ErrCrashed
				}
				return nil
			}
			if _, err := BuildMany(db, specs, opts); !errors.Is(err, vfs.ErrCrashed) {
				t.Fatalf("BuildMany = %v, want the crash at its second scan watermark", err)
			}

			db2, err := engine.Recover(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pending, err := db2.PendingBuilds()
			if err != nil {
				t.Fatal(err)
			}
			if len(pending) != len(specs) {
				t.Fatalf("pending builds = %d, want %d", len(pending), len(specs))
			}
			for _, pb := range pending {
				if pb.State == nil || pb.State.Phase != engine.IBPhaseScan {
					t.Fatalf("%s recovered state = %+v, want mid-scan", pb.Index.Name, pb.State)
				}
				res, err := Resume(db2, pb, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if n := res.Stats.KeysExtracted; n == 0 || n >= rows {
					t.Fatalf("%s resume re-extracted %d keys of %d: the scan checkpoint was not used", pb.Index.Name, n, rows)
				}
				if err := db2.CheckIndexConsistency(pb.Index.Name); err != nil {
					t.Fatal(err)
				}
				tree, err := db2.TreeOf(pb.Index.ID)
				if err != nil {
					t.Fatal(err)
				}
				if err := btree.CheckInvariants(tree); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
