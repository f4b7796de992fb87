package core

// The scan shared by every build method (NSF §2, SF §3, the offline
// baseline, and BuildMany's shared scan). The paper's dominant cost is the
// data-page scan ("the I/O time to scan the data pages would be a
// significant portion of the total elapsed time", §4). Each page goes
// through three steps on the scanning goroutine, in page order:
//
//	visit    S-latch the data page, copy its live records into a
//	         heap.PageBatch, and run the under-latch hook (SF advances
//	         Current-RID here, §3.2.2).
//	extract  decode each record and encode its (key, RID) sort items, one
//	         set per feed.
//	feed     push the items into each feed's replacement-selection sorter,
//	         then take a checkpoint every CheckpointPages pages.
//
// Current-RID therefore advances monotonically in page order under the
// page latch: an update to a page already copied routes to the side-file,
// one to a later page is left to the scan. A scan checkpoint after page P
// records scan position P+1 together with a sorter state that holds every
// record of pages <= P, so a resumed scan re-reads exactly the pages the
// checkpoint does not cover.

import (
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
	sorter *extsort.Sorter
	st     *Stats
	prog   *progress.Tracker // may be nil; fed one step per page
	met    *metrics.Registry // may be nil; receives the pipeline counters
}

// extractScratch holds the scan's extraction buffers: the arena a page's
// sort items are assembled in, their end offsets, and the slices handed out
// over the arena. The sorters copy what they are fed (extsort.Sorter.Add
// keeps none of the caller's memory), so a page's items are dead once
// feedPage returns and one scratch serves every page: extraction allocates
// nothing per record once the buffers have grown.
type extractScratch struct {
	arena []byte
	ends  []int
	items [][]byte
	out   [][][]byte
}

// extractPage builds every feed's sort items for one page batch
// (items[feed][record]) in sc's arena. Pure CPU work over the batch's
// snapshot, done off the latch.
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

// feedPage pushes one page's extracted items into the sorters and updates
// the per-feed counters.
func feedPage(feeds []*scanFeed, items [][][]byte, n int) error {
	for fi, f := range feeds {
		for _, it := range items[fi] {
			if err := f.sorter.Add(it); err != nil {
				return err
			}
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

// pipelineScan scans pages [from..end] of h, feeding every feed's sorter
// in page order. advance (may be nil) runs under each page's S latch with
// the number of the next page — the SF builder advances Current-RID there.
// checkpoint (may be nil) is invoked with the next unscanned page number
// after every checkpointPages pages, never after the final page; it runs on
// the caller's goroutine, so it may use the builder transaction.
func pipelineScan(h *heap.Table, from, end types.PageNum, feeds []*scanFeed,
	advance func(next types.PageNum),
	checkpointPages int, checkpoint func(next types.PageNum) error) error {
	if len(feeds) == 0 || from > end {
		return nil
	}
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
	mergePipelineStats(feeds, harness.PipelineStats{ExtractBusy: busy, FeedBusy: feedBusy})
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
