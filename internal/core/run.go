package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/progress"
	"onlineindex/internal/txn"
	"onlineindex/internal/types"
)

// Every build is two steps. start creates the descriptors; run drives one
// build through its method's phase list. A fresh build enters run with no
// checkpoint and begins at the scan; a resumed one enters with its last
// committed IBState, whose phase names the step to re-enter (§2.2.3,
// §3.2.4, §5). So the code that builds an index is the code that restarts
// one, and every build exercises the recovery path.
//
//	method   steps (checkpoint phase that re-enters a step)
//	NSF      scan (scan) → sort → insert (insert) → complete [+GC]
//	SF       scan (scan) → sort → load (load) → side-file (side-file) → complete
//	offline  scan → sort → load → complete   (no checkpoints: a crash cancels it)

// step is one phase of a build.
type step struct {
	resumes engine.IBPhase   // checkpoint phase whose state re-enters here (0: none)
	prog    []progress.Phase // tracker phases the step reports
	do      func() error
}

// steps returns the build's phase list.
func (b *builder) steps() []step {
	scan := step{engine.IBPhaseScan, []progress.Phase{progress.Scan}, func() error { return scan([]*builder{b}) }}
	sort := step{0, []progress.Phase{progress.Sort}, b.finishSort}
	switch b.ix.Method {
	case catalog.MethodNSF:
		done := step{0, nil, b.complete}
		if b.opts.GCAfterBuild {
			done.prog = []progress.Phase{progress.GC}
		}
		return []step{scan, sort, {engine.IBPhaseInsert, []progress.Phase{progress.Load}, b.insert}, done}
	case catalog.MethodSF:
		return []step{scan, sort, {engine.IBPhaseLoad, []progress.Phase{progress.Load}, b.load},
			{engine.IBPhaseSideFile, []progress.Phase{progress.SideFile}, b.applySideFile}, {0, nil, b.complete}}
	default:
		scan.resumes = 0
		return []step{scan, sort, {0, []progress.Phase{progress.Load}, b.load}, {0, nil, b.complete}}
	}
}

// Build creates an index with the given method, concurrently with updates
// for the online methods. It blocks until the index is complete (run it in
// a goroutine to overlap with a workload).
func Build(db *engine.DB, spec engine.CreateIndexSpec, opts Options) (*Result, error) {
	s, err := Start(db, []engine.CreateIndexSpec{spec}, []Options{opts})
	if err != nil {
		return nil, err
	}
	res, err := s.Run(0)
	if cerr := s.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// BuildMany builds several indexes on one table in a single data scan
// (§6.2: "since the cost of accessing all the data pages may be a
// significant part of the overall cost of index build, it would be very
// beneficial to build multiple indexes in one data scan"). All specs must
// name the same table and the same method. The shared scan feeds one sorter
// per index and checkpoints them all at the same scan position;
// afterwards each index runs its own steps from the sort on — concurrently
// ("a process can be spawned for each index to sort the keys, insert them
// and process the side-file"), or in spec order with SerialFinish. While
// one SF index catches up on its side-file the others keep capturing, so
// the concurrency also keeps their side-files short.
func BuildMany(db *engine.DB, specs []engine.CreateIndexSpec, opts Options) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for _, s := range specs[1:] {
		if s.Table != specs[0].Table || s.Method != specs[0].Method {
			return nil, fmt.Errorf("core: BuildMany requires one table and one method")
		}
	}
	all := make([]Options, len(specs))
	for i := range all {
		all[i] = opts
	}
	s, err := Start(db, specs, all)
	if err != nil {
		return nil, err
	}
	defer s.Close() //nolint:errcheck // the quiesce ends with the builds either way
	if err := scan(s.bs); err != nil {
		errs := make([]error, len(s.bs))
		for i, b := range s.bs {
			b.release()
			errs[i] = b.cancel(err)
		}
		return nil, errs[0]
	}
	results := make([]*Result, len(s.bs))
	errs := make([]error, len(s.bs))
	var wg sync.WaitGroup
	for i, b := range s.bs { // step 1, the sort, follows every method's scan
		if opts.SerialFinish {
			results[i], errs[i] = b.runFrom(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = b.runFrom(1)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Resume continues one interrupted index build found by restart recovery.
// The build picks up from its last committed checkpoint: the restartable
// sort repositions its runs and scan, the bottom-up loader truncates back to
// its checkpoint, side-file processing resumes at the recorded position —
// "in case a system failure were to interrupt the completion of the creation
// of the index, not all the so-far-accomplished work is lost" (§1.3).
func Resume(db *engine.DB, pb engine.PendingBuild, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tbl, ok := db.Catalog().TableByID(pb.Index.Table)
	if !ok {
		return nil, fmt.Errorf("core: resumed index %q references missing table %d", pb.Index.Name, pb.Index.Table)
	}
	b := &builder{db: db, ix: pb.Index, tbl: tbl, opts: opts.withDefaults()}
	b.st.Method = pb.Index.Method
	switch pb.Index.Method {
	case catalog.MethodNSF:
	case catalog.MethodSF:
		if b.ctl = db.BuildCtlOf(pb.Index.ID); b.ctl == nil {
			return nil, fmt.Errorf("core: SF build of %q has no registered control after recovery", pb.Index.Name)
		}
	default:
		return nil, fmt.Errorf("core: build method %v is not resumable", pb.Index.Method)
	}
	b.startProgress()
	b.seedProgress(pb.State)
	return b.run(pb.State)
}

// ResumeAll resumes every interrupted build after recovery, in index-ID
// order, returning the results.
func ResumeAll(db *engine.DB, opts Options) ([]*Result, error) {
	pending, err := db.PendingBuilds()
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, pb := range pending {
		res, err := Resume(db, pb, opts)
		if err != nil {
			return out, fmt.Errorf("core: resuming %q: %w", pb.Index.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Cancel aborts an in-progress build from outside (§2.3.2): quiesce the
// table, drop the descriptor, discard the builder state.
func Cancel(db *engine.DB, indexName string) error {
	ix, ok := db.Catalog().Index(indexName)
	if !ok {
		return fmt.Errorf("core: no index %q", indexName)
	}
	if ix.State != catalog.StateBuilding {
		return fmt.Errorf("core: index %q is not being built", indexName)
	}
	db.UnregisterBuild(ix.ID)
	db.DropIBCheckpoint(ix.ID)
	return db.DropIndex(indexName)
}

// Started is a set of builds whose descriptors exist, ready to Run.
type Started struct {
	bs      []*builder
	quiesce *txn.Txn // offline: the table S locks, held until Close
}

// Start creates the descriptors of specs, which must share one method, so
// that every index exists before any of them scans:
//
//   - NSF: one transaction S-locks every spec's table (in spec order) and
//     creates all the descriptors; its commit ends the short quiesce
//     (§2.2.1). No update commits between the first descriptor and the
//     last, so a partitioned table's shard indexes appear to its
//     transactions all at once.
//   - SF: each descriptor commits in its own transaction, with no quiesce,
//     its build control registered together with it (§3.2.1).
//   - offline: the tables stay quiesced from before the first descriptor
//     until Close.
//
// opts[i] configures spec i's build. If a descriptor fails, those already
// created are cancelled.
func Start(db *engine.DB, specs []engine.CreateIndexSpec, opts []Options) (*Started, error) {
	s := &Started{}
	var tables []types.TableID
	method := specs[0].Method
	for i, spec := range specs {
		if err := opts[i].Validate(); err != nil {
			return nil, err
		}
		if spec.Method != method {
			return nil, fmt.Errorf("core: started builds must share one method")
		}
		tbl, ok := db.Catalog().Table(spec.Table)
		if !ok {
			return nil, fmt.Errorf("core: no table %q", spec.Table)
		}
		b := &builder{db: db, tbl: tbl, opts: opts[i].withDefaults()}
		b.st.Method = method
		s.bs = append(s.bs, b)
		if !slices.Contains(tables, tbl.ID) {
			tables = append(tables, tbl.ID)
		}
	}
	switch method {
	case catalog.MethodNSF, catalog.MethodSF, catalog.MethodOffline:
	default:
		return nil, fmt.Errorf("core: unknown build method %v", method)
	}

	var shared *txn.Txn // NSF: the quiesce every descriptor is created in
	if method != catalog.MethodSF {
		qStart := time.Now()
		q, err := db.QuiesceTable(tables...)
		if err != nil {
			return nil, err
		}
		for _, b := range s.bs {
			b.st.QuiesceWait = time.Since(qStart)
		}
		if method == catalog.MethodNSF {
			shared = q
		} else {
			s.quiesce = q
		}
	}
	fail := func(n int, err error) (*Started, error) {
		if shared != nil && shared.State() == txn.StateActive {
			shared.Rollback() //nolint:errcheck // the error being returned is the cause
		}
		for _, b := range s.bs[:n] {
			b.cancel(err) //nolint:errcheck // best-effort cleanup
		}
		s.Close() //nolint:errcheck
		return nil, err
	}
	for i, b := range s.bs {
		tx := shared
		if tx == nil {
			tx = db.Begin()
		}
		var makeCtl func(catalog.Index) *engine.BuildCtl
		if method == catalog.MethodSF {
			makeCtl = func(ix catalog.Index) *engine.BuildCtl {
				b.ctl = engine.NewBuildCtl(ix.ID, catalog.MethodSF, engine.PhaseCapture)
				// Current-RID starts at the first record of the table file:
				// nothing is behind the scan yet, so no transaction appends
				// to the side-file until the scan begins to pass them.
				b.ctl.SetCurrentRID(types.RID{PageID: types.PageID{File: b.tbl.FileID}})
				return b.ctl
			}
		}
		ix, err := db.AddIndexDescriptor(tx, specs[i], makeCtl)
		if err != nil {
			if tx != shared {
				tx.Rollback() //nolint:errcheck // the error being returned is the cause
			}
			return fail(i, err)
		}
		b.ix = ix
		if tx != shared {
			if err := tx.Commit(); err != nil {
				return fail(i+1, err)
			}
		}
		b.startProgress()
	}
	if shared != nil {
		if err := shared.Commit(); err != nil {
			return fail(len(s.bs), err)
		}
	}
	return s, nil
}

// Run drives build i from its scan to completion.
func (s *Started) Run(i int) (*Result, error) { return s.bs[i].run(nil) }

// Close ends an offline build's quiesce; call it once every Run has
// returned. A no-op for the online methods.
func (s *Started) Close() error {
	if s.quiesce == nil || s.quiesce.State() != txn.StateActive {
		return nil
	}
	return s.quiesce.Commit()
}

// run drives the build through its steps: from the scan for a fresh build
// (nil state), or from the step the checkpoint's phase names, with the
// checkpointed sort, merge, loader or side-file position restored.
func (b *builder) run(state *engine.IBState) (*Result, error) {
	if state == nil {
		return b.runFrom(0)
	}
	first := slices.IndexFunc(b.steps(), func(s step) bool { return s.resumes == state.Phase })
	if first < 0 {
		return nil, fmt.Errorf("core: %v build of %q in unexpected phase %v", b.ix.Method, b.ix.Name, state.Phase)
	}
	b.tx = b.db.Begin()
	if err := b.restore(state); err != nil {
		b.release()
		return nil, b.cancel(err)
	}
	return b.runFrom(first)
}

// runFrom runs the steps from index first on. The builder transaction
// begins here unless a shared scan or restore already began it.
func (b *builder) runFrom(first int) (*Result, error) {
	defer b.release()
	if b.tx == nil {
		b.tx = b.db.Begin()
	}
	for _, s := range b.steps()[first:] {
		if err := s.do(); err != nil {
			return nil, b.cancel(err)
		}
	}
	done, _ := b.db.Catalog().Index(b.ix.Name)
	return &Result{Index: done, Stats: b.st}, nil
}

// restore rebuilds the step state a checkpoint records.
func (b *builder) restore(state *engine.IBState) error {
	switch state.Phase {
	case engine.IBPhaseScan:
		sorter, scanPos, err := b.resumeSorter(state.SortState)
		if err != nil {
			return err
		}
		b.sorter = sorter
		next, end, err := parseScanPosition(scanPos)
		// NSF rescans up to the end it noted; the SF chase scan (which
		// recovery left at the checkpointed Current-RID) ignores it.
		b.from, b.to = next, end+1
		return err
	case engine.IBPhaseInsert, engine.IBPhaseLoad:
		ms, err := extsort.DecodeMergeState(state.MergeState)
		if err != nil {
			return err
		}
		if b.merger, err = extsort.ResumeMerger(b.db.FS(), ms); err != nil {
			return err
		}
		b.st.Runs = len(ms.Runs)
		if state.Phase == engine.IBPhaseLoad {
			ls, err := btree.DecodeLoaderState(state.LoadState)
			if err != nil {
				return err
			}
			tree, err := b.db.TreeOf(b.ix.ID)
			if err != nil {
				return err
			}
			if b.loader, err = tree.RestartLoader(ls, b.opts.FillFactor); err != nil {
				return err
			}
		}
		b.noteMerge(ms.Runs, ms.Counters)
	case engine.IBPhaseSideFile:
		b.sfPos = state.SFPos
	}
	return nil
}

// release closes the merger the steps left open.
func (b *builder) release() {
	if b.merger != nil {
		b.merger.Close()
	}
}

// scan is the shared scan step: one pass over the table's data pages feeds
// every builder's sorter through pipelineScan (pipeline.go) — one
// builder for Build, one per index for BuildMany (§6.2), each page visited
// and each record decoded per index exactly once. A fresh scan starts at
// page 0, a resumed one at its checkpointed position.
//
// NSF and offline stop at the end noted before the scan starts: "the last
// page to be processed by the data page scan can be noted before starting
// IB's data scan", since transactions maintain an NSF index directly for
// records in newer pages (§2.3.1) and offline quiesces them. SF must cover
// every page that exists while Current-RID is still finite, so it chases
// the file's end (chaseScan) and advances every index's Current-RID in
// lockstep under the page latch. Every CheckpointPages pages each online
// builder checkpoints the same scan position.
func scan(bs []*builder) error {
	b0 := bs[0]
	h, err := b0.db.HeapOf(b0.tbl.ID)
	if err != nil {
		return err
	}
	feeds := make([]*scanFeed, len(bs))
	for i, b := range bs {
		if b.tx == nil {
			b.tx = b.db.Begin()
		}
		if b.sorter == nil { // fresh
			if b.ctl == nil {
				n, err := h.PageCount()
				if err != nil {
					return err
				}
				b.to = n
			}
			b.sorter = b.newSorter()
		}
		feeds[i] = &scanFeed{ix: &b.ix, sorter: b.sorter, st: &b.st, prog: b.prog, met: b.db.Metrics()}
	}
	var advance func(next types.PageNum)
	if b0.ctl != nil {
		advance = func(next types.PageNum) {
			// Under the page latch: advance Current-RID past the whole page
			// so every later modification of it routes to the side-file.
			for _, b := range bs {
				b.ctl.AdvanceCurrentRID(types.RID{PageID: types.PageID{File: b.tbl.FileID, Page: next}})
			}
		}
	}
	ckptPages := b0.opts.CheckpointPages
	if b0.ix.Method == catalog.MethodOffline {
		ckptPages = 0 // a crash cancels an offline build; nothing would resume
	}
	scanRange := func(lo, hi types.PageNum) error {
		for _, b := range bs {
			// The SF chase discovers appended pages round by round: the
			// total grows with each round and the tracker clamps the
			// reported fraction.
			b.prog.SetTotal(progress.Scan, uint64(hi)+1)
		}
		return pipelineScan(h, lo, hi, feeds, advance, ckptPages, func(next types.PageNum) error {
			for _, b := range bs {
				if err := b.checkpointScan(next, hi); err != nil {
					return err
				}
			}
			return nil
		})
	}
	start := time.Now()
	switch {
	case b0.ctl != nil:
		err = chaseScan(h, b0.from, scanRange, func() {
			// "When IB finishes processing the last data page, it sets
			// Current-RID to infinity" — from here on, file extensions go
			// to the side-file.
			for _, b := range bs {
				b.ctl.SetCurrentRID(types.MaxRID)
			}
		})
	case b0.from < b0.to:
		err = scanRange(b0.from, b0.to-1)
	}
	if err != nil {
		return err
	}
	d := time.Since(start)
	for _, b := range bs {
		b.st.ScanSort += d
		b.prog.FinishPhase(progress.Scan)
	}
	return nil
}

// checkpointScan commits a scan checkpoint covering exactly the scanned
// pages [..next): the sorter state holds every record of them, and the
// recorded Current-RID is the first page the resumed scan re-reads.
func (b *builder) checkpointScan(next, end types.PageNum) error {
	ss, err := b.sorter.Checkpoint(scanPosition(next, end))
	if err != nil {
		return err
	}
	st := engine.IBState{Index: b.ix.ID, Phase: engine.IBPhaseScan, EndPage: end, SortState: ss.Encode()}
	if b.ctl != nil {
		st.CurrentRID = types.RID{PageID: types.PageID{File: b.tbl.FileID, Page: next}}
	}
	return b.rotate(st)
}

// finishSort drains the sorter into its last runs and opens the merge over
// all of them.
func (b *builder) finishSort() error {
	runs, err := b.sorter.Finish()
	if err != nil {
		return err
	}
	b.st.Runs = len(runs)
	if b.merger, err = extsort.NewMerger(b.db.FS(), runs, nil); err != nil {
		return err
	}
	b.noteMerge(runs, nil)
	return nil
}

// complete makes the index available for reads. SF has already logged the
// state change inside the side-file step's append freeze; NSF and offline
// log it here. NSF with GCAfterBuild then collects the pseudo-deleted keys
// (§2.2.4).
func (b *builder) complete() error {
	if b.ctl == nil {
		if err := b.db.SetIndexComplete(b.tx, b.ix.ID); err != nil {
			return err
		}
		if err := b.tx.Commit(); err != nil {
			return err
		}
	} else {
		b.db.UnregisterBuild(b.ix.ID)
	}
	b.db.DropIBCheckpoint(b.ix.ID)
	if b.opts.GCAfterBuild && b.ix.Method == catalog.MethodNSF {
		res, err := GC(b.db, b.ix.Name)
		if err != nil {
			return err
		}
		b.st.GC.Collected = res.Collected
		b.st.GC.Skipped = res.Skipped
		b.prog.FinishPhase(progress.GC)
	}
	b.prog.Complete()
	return nil
}
