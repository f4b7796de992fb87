package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"onlineindex/internal/catalog"
	"onlineindex/internal/core"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/harness"
	"onlineindex/internal/vfs"
	"onlineindex/internal/wal"
	"onlineindex/internal/workload"
)

// E4Clustering measures index clustering (fraction of ascending
// leaf-page transitions) for each method under growing concurrent update
// activity.
//
// Paper claim (§4): "it is expected that the index built by SF would be more
// clustered ... than the one built by NSF. Deviations from the perfect
// clustering achievable without concurrent updates would be a function of
// the transactions' key insert and delete activities during the time of
// index build. These deviations need to be quantified for both algorithms."
// This experiment is that quantification.
func E4Clustering(cfg Config) error {
	n := cfg.rows(25_000)
	var rows [][]string
	for _, workers := range []int{0, 1, 2, 4, 8} {
		for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
			db, rids, err := setup(n)
			if err != nil {
				return err
			}
			var runner *workload.Runner
			if workers > 0 {
				// Saturating (unpaced) workers: the paper's deviation claim
				// is about heavy concurrent activity.
				runner = workload.NewRunner(db, tableName, rids, workers, workload.DefaultMix)
				runner.Start()
			}
			res, err := core.Build(db, spec("by_key", method), core.Options{})
			if err != nil {
				return err
			}
			var wst workload.Stats
			if runner != nil {
				wst = runner.Stop()
				if errs := runner.Errs(); len(errs) > 0 {
					return fmt.Errorf("E4: workload error: %v", errs[0])
				}
			}
			if err := db.CheckIndexConsistency("by_key"); err != nil {
				return fmt.Errorf("E4 %s w=%d: %w", method, workers, err)
			}
			cl, err := harness.IndexClustering(db, "by_key")
			if err != nil {
				return err
			}
			pages, _ := harness.IndexPages(db, "by_key")
			rows = append(rows, []string{
				fmt.Sprintf("%d", workers), methodName(method),
				fmt.Sprintf("%.3f", cl),
				fmt.Sprintf("%d", pages),
				harness.N(wst.Commits),
				harness.N(res.Stats.SideFileLen),
			})
		}
	}
	cfg.printf("%s\n", harness.Table(
		"E4  Clustering factor vs concurrent update workers (1.0 = perfectly sequential leaves)",
		[]string{"updaters", "method", "clustering", "index pages", "txns during build", "side-file entries"},
		rows))
	return nil
}

// E5LogBytes measures the log volume each build method generates, split by
// record type, including the NSF multi-key ablation.
//
// Paper claims (§4): "no log records are written by IB [in SF] for inserting
// keys until side-file processing begins. In NSF, log records are written
// for all key inserts by IB. NSF reduces this overhead by logging all the
// keys inserted on a particular index page using a single log record."
func E5LogBytes(cfg Config) error {
	n := cfg.rows(30_000)
	type variant struct {
		label  string
		method catalog.BuildMethod
		batch  int
	}
	variants := []variant{
		{"offline", catalog.MethodOffline, 0},
		{"NSF multi-key (batch 64)", catalog.MethodNSF, 64},
		{"NSF per-key (batch 1)", catalog.MethodNSF, 1},
		{"SF", catalog.MethodSF, 0},
	}
	var rows [][]string
	for _, v := range variants {
		db, _, err := setup(n)
		if err != nil {
			return err
		}
		before := db.Log().Stats()
		if _, err := core.Build(db, spec("by_key", v.method), core.Options{BatchSize: v.batch}); err != nil {
			return err
		}
		d := db.Log().Stats().Delta(before)
		idxIns := d.TypeStat(wal.TypeIdxInsert)
		multi := d.TypeStat(wal.TypeIdxMultiInsert)
		splits := d.TypeStat(wal.TypeIdxSplit)
		rows = append(rows, []string{
			v.label,
			harness.N(d.Records), harness.N(d.Bytes),
			harness.N(multi.Records), harness.N(multi.Bytes),
			harness.N(idxIns.Records),
			harness.N(splits.Records),
		})
	}
	cfg.printf("%s\n", harness.Table(
		"E5  Log volume of the whole build, quiet table",
		[]string{"variant", "records", "bytes", "multi-ins recs", "multi-ins bytes", "idx-ins recs", "split recs"},
		rows))
	return nil
}

// E6BuildRestart crashes the system midway through a build and compares the
// work re-done after resume across checkpoint intervals (none = restart the
// phases from their beginnings).
//
// Paper claim (§1.3): "techniques for making the index-build operation
// restartable, without loss of all work, in case a system failure were to
// interrupt the completion of the creation of the index."
func E6BuildRestart(cfg Config) error {
	n := cfg.rows(20_000)
	var rows [][]string
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		// Calibration: time one uninterrupted build of the same size so the
		// crash can be aimed at its halfway point (log-volume aiming would
		// not work: SF writes almost no log until side-file processing).
		calDB, _, err := setup(n)
		if err != nil {
			return err
		}
		calStart := time.Now()
		if _, err := core.Build(calDB, spec("by_key", method), core.Options{}); err != nil {
			return err
		}
		buildDur := time.Since(calStart)

		for _, ckpt := range []int{0, 5000, 1000} {
			opts := core.Options{CheckpointPages: ckptPages(ckpt), CheckpointKeys: ckpt}
			var db *engine.DB
			var fs *vfs.MemFS
			// A 50%-of-calibrated-duration crash can occasionally land after
			// the build completed (scheduling noise); retry such landings.
			for attempt := 0; attempt < 5; attempt++ {
				var err error
				db, _, err = setup(n)
				if err != nil {
					return err
				}
				fs = db.FS().(*vfs.MemFS)
				done := make(chan error, 1)
				go func() {
					defer func() { recover() }()
					_, err := core.Build(db, spec("by_key", method), opts)
					done <- err
				}()
				time.Sleep(buildDur / 2)
				db.Crash()
				<-done
				if ix, ok := db.Catalog().Index("by_key"); !ok || ix.State != catalog.StateComplete {
					break // the crash interrupted the build, as intended
				}
			}

			restartStart := time.Now()
			db2, err := engine.Recover(engine.Config{FS: fs, PoolSize: 4096})
			if err != nil {
				return err
			}
			pending, err := db2.PendingBuilds()
			if err != nil {
				return err
			}
			var reExtracted, reInserted uint64
			var resumeDur time.Duration
			ix, haveIx := db2.Catalog().Index("by_key")
			switch {
			case len(pending) == 1:
				res, err := core.Resume(db2, pending[0], opts)
				if err != nil {
					return err
				}
				resumeDur = time.Since(restartStart)
				reExtracted = res.Stats.KeysExtracted
				reInserted = res.Stats.KeysInserted
			case haveIx && ix.State == catalog.StateComplete:
				// The crash landed after completion (possible at small
				// scales): nothing to redo.
				resumeDur = time.Since(restartStart)
			default:
				// Crash landed before the descriptor commit; full rebuild.
				res, err := core.Build(db2, spec("by_key", method), opts)
				if err != nil {
					return err
				}
				resumeDur = time.Since(restartStart)
				reExtracted = res.Stats.KeysExtracted
				reInserted = res.Stats.KeysInserted
			}
			if err := db2.CheckIndexConsistency("by_key"); err != nil {
				return fmt.Errorf("E6 %s ckpt=%d: %w", method, ckpt, err)
			}
			label := "none"
			if ckpt > 0 {
				label = harness.N(uint64(ckpt)) + " keys"
			}
			rows = append(rows, []string{
				methodName(method), label,
				harness.N(reExtracted),
				harness.N(reInserted),
				ms(resumeDur),
			})
		}
	}
	cfg.printf("%s\n", harness.Table(
		fmt.Sprintf("E6  Crash at ~50%% of a %s-row build: work re-done after restart", harness.N(uint64(n))),
		[]string{"method", "checkpoint every", "keys re-extracted", "keys re-inserted", "recover+resume ms"},
		rows))
	return nil
}

func ckptPages(keys int) int {
	if keys == 0 {
		return 0
	}
	return 8
}

// E7SortRestart exercises the restartable sort in isolation: crash during
// the sort phase and during the merge phase, with and without checkpoints,
// and measure how much input must be re-read.
//
// Paper claim (§5): the sort and merge phases resume from their checkpoints
// with no key lost or duplicated.
func E7SortRestart(cfg Config) error {
	n := cfg.rows(200_000)
	items := make([][]byte, n)
	perm := rand.New(rand.NewSource(99)).Perm(n)
	for i, p := range perm {
		items[i] = []byte(fmt.Sprintf("key-%09d", p))
	}

	var rows [][]string
	for _, every := range []int{0, 50_000, 10_000} {
		fs := vfs.NewMemFS()
		s := extsort.NewSorter(fs, "e7", 2048)
		var st extsort.SortState
		haveCkpt := false
		crashAt := n / 2
		for i := 0; i < crashAt; i++ {
			if err := s.Add(items[i]); err != nil {
				return err
			}
			if every > 0 && (i+1)%every == 0 {
				cs, err := s.Checkpoint([]byte(fmt.Sprintf("%d", i+1)))
				if err != nil {
					return err
				}
				st, haveCkpt = cs, true
			}
		}
		fs.Crash()
		fs.Recover()

		resumeFrom := 0
		var s2 *extsort.Sorter
		if haveCkpt {
			var scanPos []byte
			var err error
			s2, scanPos, err = extsort.ResumeSorterWithCapacity(fs, st, 2048)
			if err != nil {
				return err
			}
			fmt.Sscanf(string(scanPos), "%d", &resumeFrom)
		} else {
			// No checkpoint: all pre-crash work is lost; restart from zero.
			s2 = extsort.NewSorter(fs, "e7b", 2048)
		}
		reRead := n - resumeFrom
		for i := resumeFrom; i < n; i++ {
			if err := s2.Add(items[i]); err != nil {
				return err
			}
		}
		runs, err := s2.Finish()
		if err != nil {
			return err
		}
		m, err := extsort.NewMerger(fs, runs, nil)
		if err != nil {
			return err
		}
		count := 0
		var prev []byte
		for {
			it, _, ok, err := m.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if prev != nil && bytes.Compare(prev, it) > 0 {
				return fmt.Errorf("E7: output not sorted")
			}
			prev = append(prev[:0], it...) // the merge lends its items
			count++
		}
		m.Close()
		if count != n {
			return fmt.Errorf("E7: output has %d items, want %d (lost or duplicated)", count, n)
		}
		label := "none (restart from scratch)"
		if every > 0 {
			label = harness.N(uint64(every)) + " items"
		}
		rows = append(rows, []string{
			label,
			harness.N(uint64(crashAt)),
			harness.N(uint64(reRead)),
			fmt.Sprintf("%.0f%%", 100*float64(reRead-(n-crashAt))/float64(crashAt)),
			fmt.Sprintf("%d", len(runs)),
		})
	}
	cfg.printf("%s\n", harness.Table(
		fmt.Sprintf("E7  Restartable sort: crash at %s of %s items (sort phase)", harness.N(uint64(n/2)), harness.N(uint64(n))),
		[]string{"checkpoint every", "done at crash", "items re-added", "pre-crash work lost", "runs"},
		rows))
	return nil
}
