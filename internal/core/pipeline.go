package core

// The staged scan pipeline shared by every build method (NSF §2, SF §3, the
// offline baseline, and BuildMany's shared scan). The paper's dominant cost
// is the data-page scan ("the I/O time to scan the data pages would be a
// significant portion of the total elapsed time", §4); the pipeline splits
// that hot path into three stages so key extraction — the CPU half of the
// scan — can fan out across goroutines without weakening any of the
// protocols the scan order carries:
//
//	stage 1  page visitor   (serial, page order)  S-latch each data page,
//	         copy its live records into a heap.PageBatch, and run the
//	         under-latch hook (SF advances Current-RID here, §3.2.2).
//	stage 2  extraction     (Options.ScanWorkers goroutines)  decode each
//	         record and encode its (key, RID) sort items, one set per feed.
//	stage 3  sorter feed    (serial, page order)  an in-order sequencer
//	         re-serializes the extractions and pushes them into each feed's
//	         replacement-selection sorter, taking watermark checkpoints.
//
// Two invariants make the parallelism safe:
//
//   - Current-RID advances monotonically in page order under the page
//     latch, because only the serial stage-1 visitor touches it. An
//     out-of-order scan would let an update to an already-extracted page
//     skip both the side-file and the scan (§3.2.2); here pages are
//     latched, copied and passed the Current-RID in strictly ascending
//     order, exactly as in the serial implementation.
//   - Scan checkpoints cover only the drained-prefix watermark: a
//     checkpoint fires after page P only once every page <= P has been fed
//     to the sorters, and it records scan position P+1 — not the visitor's
//     (possibly further ahead) prefetch position. Crash/restart therefore
//     resumes identically at any worker count. Updates to pages between
//     the watermark and the prefetch head that routed to the side-file
//     before a crash are re-extracted by the resumed scan and absorbed by
//     duplicate rejection, the same way §3.2.2's race-window pages are.

import (
	"sync"
	"sync/atomic"
	"time"

	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/harness"
	"onlineindex/internal/heap"
	"onlineindex/internal/metrics"
	"onlineindex/internal/progress"
	"onlineindex/internal/types"
)

// scanFeed couples one index's key extraction with its sorter and stats.
// A single build has one feed; BuildMany has one per index, all fed from
// the same page visits (§6.2).
type scanFeed struct {
	ix     *catalog.Index
	sorter *extsort.PartSorter
	st     *Stats
	prog   *progress.Tracker // may be nil; fed one step per page
	met    *metrics.Registry // may be nil; receives the pipeline counters
}

// scanJob is one visited page on its way to an extraction worker.
type scanJob struct {
	seq   int
	batch heap.PageBatch
}

// pageResult is one page's extracted sort items (items[feed][record]).
type pageResult struct {
	seq   int
	items [][][]byte
	n     int // record count
	busy  time.Duration
	err   error
}

// pipelineScan runs the staged scan over pages [from..end] of h, feeding
// every feed's sorter in strict page order. advance (may be nil) runs under
// each page's S latch with the number of the next page — the SF builder
// advances Current-RID there. checkpoint (may be nil) is invoked with the
// next unscanned page number after every checkpointPages fully-fed pages,
// never after the final page; it runs on the caller's goroutine, so it may
// use the builder transaction.
func pipelineScan(h *heap.Table, from, end types.PageNum, feeds []*scanFeed,
	workers int, advance func(next types.PageNum),
	checkpointPages int, checkpoint func(next types.PageNum) error) error {
	if len(feeds) == 0 || from > end {
		return nil
	}
	if workers <= 1 {
		return serialScan(h, from, end, feeds, advance, checkpointPages, checkpoint)
	}
	return parallelScan(h, from, end, feeds, workers, advance, checkpointPages, checkpoint)
}

// extractScratch holds one extraction worker's buffers: the arena a page's
// sort items are assembled in, their end offsets, and the slices handed out
// over the arena. The sorters copy what they are fed (extsort.PartSorter.
// FeedPage keeps none of the caller's memory), so a page's items are dead
// once feedPage returns and the serial scan reuses one scratch for every
// page: extraction allocates nothing per record once the buffers have
// grown. The parallel scan hands each page to the sequencer on another
// goroutine, so its workers detach the buffers after every page.
type extractScratch struct {
	arena []byte
	ends  []int
	items [][]byte
	out   [][][]byte
}

// detach gives the scratch fresh buffers of the same sizes, leaving the
// ones the last page's items point into to their new owner.
func (sc *extractScratch) detach() {
	sc.arena = make([]byte, 0, cap(sc.arena))
	sc.items = make([][]byte, 0, cap(sc.items))
	sc.out = make([][][]byte, 0, cap(sc.out))
}

// extractPage builds every feed's sort items for one page batch
// (items[feed][record]) in sc's arena. Pure CPU work over the batch's
// snapshot — safe off the latch and off the scan goroutine.
func extractPage(feeds []*scanFeed, batch *heap.PageBatch, sc *extractScratch) ([][][]byte, error) {
	n := batch.Len()
	sc.arena, sc.ends = sc.arena[:0], sc.ends[:0]
	for _, f := range feeds {
		for i := 0; i < n; i++ {
			var err error
			sc.arena, err = engine.AppendIndexKeyFromRecord(sc.arena, f.ix, batch.Rec(i))
			if err != nil {
				return nil, err
			}
			sc.arena = appendRIDBytes(sc.arena, batch.RID(i))
			sc.ends = append(sc.ends, len(sc.arena))
		}
	}
	// Slice only now: the appends above may have moved the arena.
	sc.items = sc.items[:0]
	start := 0
	for _, end := range sc.ends {
		sc.items = append(sc.items, sc.arena[start:end:end])
		start = end
	}
	sc.out = sc.out[:0]
	for fi := range feeds {
		sc.out = append(sc.out, sc.items[fi*n:(fi+1)*n])
	}
	return sc.out, nil
}

// feedPage pushes one page's extracted items into the sorters (stage 3) and
// updates the per-feed counters. Items are owned by the pipeline, so the
// copy inside Sorter.Add is skipped. Whole pages go in at once: the
// partitioned sorter assigns pages to partitions round-robin, and in
// concurrent mode the push is a channel hand-off rather than tournament
// work on this goroutine.
func feedPage(feeds []*scanFeed, items [][][]byte, n int) error {
	for fi, f := range feeds {
		if err := f.sorter.FeedPage(items[fi]); err != nil {
			return err
		}
		f.st.KeysExtracted += uint64(n)
		f.st.PagesScanned++
		f.prog.Step(progress.Scan, 1)
	}
	return nil
}

// mergePipelineStats folds one scan's pipeline counters into every feed and
// exports them once into the engine registry (all feeds of one scan share the
// engine, so the first feed's registry stands for the scan).
func mergePipelineStats(feeds []*scanFeed, ps harness.PipelineStats) {
	for _, f := range feeds {
		f.st.Pipeline.Merge(ps)
	}
	if len(feeds) > 0 {
		ps.Export(feeds[0].met)
	}
}

// serialScan is the workers<=1 path: visit, extract and feed alternate on
// the calling goroutine. It shares every stage helper with the parallel
// path, so the two paths cannot drift.
func serialScan(h *heap.Table, from, end types.PageNum, feeds []*scanFeed,
	advance func(next types.PageNum),
	checkpointPages int, checkpoint func(next types.PageNum) error) error {
	var busy, feedBusy time.Duration
	var sc extractScratch
	for pg := from; pg <= end; pg++ {
		batch, err := h.ReadPageBatch(pg, underLatch(advance, pg))
		if err != nil {
			return err
		}
		t0 := time.Now()
		items, err := extractPage(feeds, &batch, &sc)
		busy += time.Since(t0)
		if err != nil {
			return err
		}
		t1 := time.Now()
		err = feedPage(feeds, items, batch.Len())
		feedBusy += time.Since(t1)
		if err != nil {
			return err
		}
		if checkpointPages > 0 && int(pg-from+1)%checkpointPages == 0 && pg != end {
			if err := checkpoint(pg + 1); err != nil {
				return err
			}
		}
	}
	mergePipelineStats(feeds, harness.PipelineStats{Workers: 1, ExtractBusy: busy, FeedBusy: feedBusy})
	return nil
}

// underLatch adapts advance to VisitPage/ReadPageBatch's doneFn contract.
func underLatch(advance func(next types.PageNum), pg types.PageNum) func() error {
	if advance == nil {
		return nil
	}
	return func() error {
		advance(pg + 1)
		return nil
	}
}

// parallelScan is the workers>1 path: one visitor goroutine (stage 1), a
// worker pool (stage 2), and the calling goroutine as the in-order
// sequencer (stage 3).
func parallelScan(h *heap.Table, from, end types.PageNum, feeds []*scanFeed,
	workers int, advance func(next types.PageNum),
	checkpointPages int, checkpoint func(next types.PageNum) error) error {
	total := int(end-from) + 1
	if workers > total {
		workers = total
	}
	// Buffer sizes bound the visitor's read-ahead: at most
	// len(jobs) + workers + len(results) pages are in flight beyond the
	// watermark, so memory stays O(workers) pages. The 4x depth absorbs
	// head-of-line bursts — the sequencer consumes pages in order, so a
	// slow extraction of page k parks every later page in the channels;
	// with cap == workers the whole pool then stalls until k arrives.
	// Checkpoints still cover only the drained watermark, so the deeper
	// read-ahead changes no durable state.
	jobs := make(chan scanJob, workers*4)
	results := make(chan pageResult, workers*4)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var fed atomic.Int64 // pages the sequencer has fully fed (watermark)
	var ps harness.PipelineStats
	ps.Workers = workers

	var wg sync.WaitGroup
	// Stage 1: the visitor. Serial and in page order — the only stage that
	// latches data pages or moves Current-RID.
	wg.Add(1)
	go func() {
		defer wg.Done()
		read := int64(0)
		for pg := from; pg <= end; pg++ {
			select {
			case <-stop:
				return
			default:
			}
			batch, err := h.ReadPageBatch(pg, underLatch(advance, pg))
			if err != nil {
				results <- pageResult{seq: int(pg - from), err: err}
				return
			}
			read++
			if read-fed.Load() > 1 {
				atomic.AddUint64(&ps.PagesPrefetched, 1)
			}
			select {
			case jobs <- scanJob{seq: int(pg - from), batch: batch}:
			case <-stop:
				return
			}
		}
	}()
	// Stage 2: extraction workers.
	workersWG := sync.WaitGroup{}
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			var sc extractScratch
			for j := range jobs {
				t0 := time.Now()
				items, err := extractPage(feeds, &j.batch, &sc)
				sc.detach() // the page is in flight to the sequencer
				r := pageResult{seq: j.seq, items: items, n: j.batch.Len(),
					busy: time.Since(t0), err: err}
				select {
				case results <- r:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()        // visitor done (or stopped)
		close(jobs)      // lets workers drain and exit
		workersWG.Wait() // all results delivered
		close(results)
	}()

	// Stage 3: the sequencer. Re-serializes extractions into page order,
	// feeds the sorters, and takes watermark checkpoints. It never blocks
	// on anything but the results channel, so the workers cannot deadlock
	// against it.
	next := 0
	pending := make(map[int]pageResult, workers*2)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		halt()
	}
	for {
		t0 := time.Now()
		r, ok := <-results
		ps.FeedWait += time.Since(t0)
		if !ok {
			break
		}
		if r.err != nil {
			fail(r.err)
			continue
		}
		if firstErr != nil {
			continue // draining
		}
		pending[r.seq] = r
		for {
			pr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			ps.ExtractBusy += pr.busy
			t1 := time.Now()
			err := feedPage(feeds, pr.items, pr.n)
			ps.FeedBusy += time.Since(t1)
			if err != nil {
				fail(err)
				break
			}
			next++
			fed.Store(int64(next))
			pg := from + types.PageNum(next-1)
			if checkpointPages > 0 && next%checkpointPages == 0 && pg != end {
				if err := checkpoint(pg + 1); err != nil {
					fail(err)
					break
				}
			}
		}
		if next == total {
			halt() // all pages fed; unblock any worker parked on send
		}
	}
	if firstErr != nil {
		return firstErr
	}
	mergePipelineStats(feeds, ps)
	return nil
}

// chaseScan drives scanRange over the table from page `from` until no new
// pages appear. The SF scan must cover every page that exists while
// Current-RID is still finite — a record inserted into a freshly extended
// page has Target-RID >= Current-RID, so its transaction deliberately made
// no side-file entry, counting on the scan to pick it up (§3.2.2).
// setInfinity then publishes Current-RID = ∞ ("when IB finishes processing
// the last data page, it sets Current-RID to infinity"), and one final
// sweep picks up pages allocated in the race window before infinity was
// visible; records there may be double-covered by side-file entries, which
// duplicate rejection absorbs at insert time.
func chaseScan(h *heap.Table, from types.PageNum,
	scanRange func(from, to types.PageNum) error, setInfinity func()) error {
	scanned := from
	for {
		m, err := h.PageCount()
		if err != nil {
			return err
		}
		if m <= scanned {
			break
		}
		if err := scanRange(scanned, m-1); err != nil {
			return err
		}
		scanned = m
	}
	setInfinity()
	if m, err := h.PageCount(); err != nil {
		return err
	} else if m > scanned {
		return scanRange(scanned, m-1)
	}
	return nil
}
