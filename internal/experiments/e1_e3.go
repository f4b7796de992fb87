package experiments

import (
	"fmt"
	"time"

	"onlineindex/internal/catalog"
	"onlineindex/internal/core"
	"onlineindex/internal/engine"
	"onlineindex/internal/harness"
	"onlineindex/internal/workload"
)

// E1BuildTime measures the quiet-table build cost of the three methods at
// several table sizes, with the phase breakdown (scan+sort, key insertion /
// bottom-up load, side-file application).
//
// Paper claim (§4): "In SF, IB is able to build the index more efficiently
// than in NSF" — no log records and no tree traversals until side-file
// processing, bottom-up build. The offline build is the lower bound.
func E1BuildTime(cfg Config) error {
	var rows [][]string
	for _, n := range []int{cfg.rows(10_000), cfg.rows(30_000), cfg.rows(60_000)} {
		for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
			db, _, err := setup(n)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := core.Build(db, spec("by_key", method), core.Options{})
			if err != nil {
				return err
			}
			total := time.Since(start)
			if err := db.CheckIndexConsistency("by_key"); err != nil {
				return fmt.Errorf("E1 %s n=%d: %w", method, n, err)
			}
			st := res.Stats
			rows = append(rows, []string{
				harness.N(uint64(n)), methodName(method),
				ms(st.ScanSort), ms(st.Insert), ms(st.SideFile), ms(total),
				fmt.Sprintf("%d", st.Runs), ms(st.Pipeline.ExtractBusy), ms(st.Pipeline.FeedBusy),
			})
		}
	}
	cfg.printf("%s\n", harness.Table(
		"E1  Build time, quiet table (phase breakdown)",
		[]string{"rows", "method", "scan+sort ms", "insert ms", "side-file ms", "total ms", "runs", "extract-busy ms", "feed-busy ms"},
		rows))
	return nil
}

// E2Availability measures committed update-transaction throughput while each
// build method runs, against the no-build baseline.
//
// Paper claim (§1): disallowing updates during an index build "may become
// unacceptable"; both online algorithms keep the table fully available
// while the offline baseline blocks updaters for the entire build (visible
// as a max stall roughly equal to the build time and a throughput collapse).
func E2Availability(cfg Config) error {
	n := cfg.rows(40_000)
	var rows [][]string

	measure := func(label string, build func(db *engine.DB) error) error {
		db, rids, err := setup(n)
		if err != nil {
			return err
		}
		runner := workload.NewRunner(db, tableName, rids, 4, workload.DefaultMix)
		runner.Start()
		buildStart := time.Now()
		var buildDur time.Duration
		if build != nil {
			if err := build(db); err != nil {
				runner.Stop()
				return err
			}
			buildDur = time.Since(buildStart)
		} else {
			time.Sleep(400 * time.Millisecond)
			buildDur = 0
		}
		st := runner.Stop()
		if errs := runner.Errs(); len(errs) > 0 {
			return fmt.Errorf("E2 %s: workload error: %v", label, errs[0])
		}
		if build != nil {
			// Verify only after the workload has drained: the checker's two
			// scans are not atomic against live updates.
			if err := db.CheckIndexConsistency("by_key"); err != nil {
				return fmt.Errorf("E2 %s: %w", label, err)
			}
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.0f", st.Throughput()),
			ms(st.MaxStall),
			ms(buildDur),
			harness.N(st.Commits),
		})
		return nil
	}

	if err := measure("no build (baseline)", nil); err != nil {
		return err
	}
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		m := method
		if err := measure(methodName(m)+" build", func(db *engine.DB) error {
			_, err := core.Build(db, spec("by_key", m), core.Options{})
			return err
		}); err != nil {
			return err
		}
	}
	cfg.printf("%s\n", harness.Table(
		"E2  Update throughput during index build (4 updaters)",
		[]string{"scenario", "commits/s", "max stall", "build ms", "commits"},
		rows))
	return nil
}

// E3Quiesce measures the descriptor-creation quiesce: with a long-running
// update transaction open, the NSF DDL must wait for it (and blocks new
// updaters meanwhile), while SF's DDL proceeds immediately.
//
// Paper claims: §2.2.1 "this is a short term quiesce"; §3.2.1 "without
// quiescing (update) transactions"; §4 "in SF, no quiescing of table updates
// by transactions is required at any time".
func E3Quiesce(cfg Config) error {
	var rows [][]string
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		for _, holdMs := range []int{0, 50, 200} {
			db, rids, err := setup(cfg.rows(2_000))
			if err != nil {
				return err
			}
			// A transaction with an uncommitted update holds IX on the table.
			longTx := db.Begin()
			if err := db.Delete(longTx, tableName, rids[0]); err != nil {
				return err
			}
			go func(d int) {
				time.Sleep(time.Duration(d) * time.Millisecond)
				longTx.Commit()
			}(holdMs)

			res, err := core.Build(db, spec("by_key", method), core.Options{})
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				methodName(method),
				fmt.Sprintf("%d", holdMs),
				ms(res.Stats.QuiesceWait),
			})
		}
	}
	cfg.printf("%s\n", harness.Table(
		"E3  Descriptor-create quiesce wait vs open-transaction hold time",
		[]string{"method", "txn holds for (ms)", "quiesce wait (ms)"},
		rows))
	return nil
}
