package core

// Progress feeding: every builder phase reports the same quantities its
// durable checkpoints record (scan page position, merge counter vectors,
// side-file apply position), so a resumed build seeds its tracker from the
// last committed IBState and the reported fraction never falls behind work
// that was durably done.

import (
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/progress"
)

// startProgress creates and registers the build's tracker. Tracking follows
// the engine's metrics switch: with Config.DisableMetrics set no tracker is
// created, and every feed below is a nil-safe no-op.
func (b *builder) startProgress() {
	if b.db.Metrics() == nil {
		return
	}
	b.prog = progress.New(b.ix.Name, b.ix.Method.String(), b.progressPhases()...)
	b.db.RegisterProgress(b.ix.ID, b.prog)
}

// progressPhases lists the tracker phases the build's steps report.
func (b *builder) progressPhases() []progress.Phase {
	var ph []progress.Phase
	for _, s := range b.steps() {
		ph = append(ph, s.prog...)
	}
	return ph
}

// seedProgress primes a resumed build's tracker from the durable checkpoint,
// then installs the resulting fraction as the floor the report never drops
// below. No-op for a build that never checkpointed.
func (b *builder) seedProgress(state *engine.IBState) {
	if b.prog == nil || state == nil {
		return
	}
	switch state.Phase {
	case engine.IBPhaseScan:
		if ss, err := extsort.DecodePartSortState(state.SortState); err == nil {
			if next, end, err := parseScanPosition(ss.ScanPos); err == nil {
				b.prog.SetTotal(progress.Scan, uint64(end)+1)
				b.prog.Advance(progress.Scan, uint64(next))
			}
		}
	case engine.IBPhaseInsert, engine.IBPhaseLoad:
		if ms, err := extsort.DecodeMergeState(state.MergeState); err == nil {
			done, total := mergeProgress(&ms)
			b.prog.SetTotal(progress.Load, total)
			b.prog.Advance(progress.Load, done)
		}
	case engine.IBPhaseSideFile:
		b.prog.FinishPhase(progress.Load)
		b.prog.Advance(progress.SideFile, state.SFPos)
	}
	b.prog.SeedResume()
}

// mergeProgress returns the merge's completed and total key counts: the sum
// of the per-stream counters against the sum of the run lengths — exactly
// the restartable merge's checkpoint vector (§5.2).
func mergeProgress(ms *extsort.MergeState) (done, total uint64) {
	for _, r := range ms.Runs {
		total += r.Count
	}
	for _, c := range ms.Counters {
		done += c
	}
	return done, total
}

// partCapacity splits the configured sort memory across partitions:
// SortMemory is the build's total in-memory working set, so fanning out
// does not multiply it.
func partCapacity(sortMemory, parts int) int {
	if parts > 1 {
		sortMemory /= parts
	}
	return max(2, sortMemory)
}

// newSorter creates the build's (possibly partitioned) run sorter with the
// engine's sort metrics attached. SerialFinish keeps the partition feed
// inline on the scan goroutine for a deterministic I/O order.
func (b *builder) newSorter() *extsort.PartSorter {
	s := extsort.NewPartSorter(b.db.FS(), sortPrefix(b.ix.ID),
		partCapacity(b.opts.SortMemory, b.opts.SortPartitions),
		b.opts.SortPartitions, !b.opts.SerialFinish)
	s.SetMetrics(extsort.MetricsFrom(b.db.Metrics()))
	return s
}

// resumeSorter rebuilds the run sorter from a checkpointed sort state. The
// partition count comes from the durable state (the runs on disk decide),
// not from the current options; only the tree capacity is re-derived.
func (b *builder) resumeSorter(sortState []byte) (*extsort.PartSorter, []byte, error) {
	ss, err := extsort.DecodePartSortState(sortState)
	if err != nil {
		return nil, nil, err
	}
	s, scanPos, err := extsort.ResumePartSorter(b.db.FS(), ss,
		partCapacity(b.opts.SortMemory, len(ss.Parts)), !b.opts.SerialFinish)
	if err != nil {
		return nil, nil, err
	}
	s.SetMetrics(extsort.MetricsFrom(b.db.Metrics()))
	return s, scanPos, nil
}

// mergeOpts selects the merge's I/O options: run-reader readahead only for
// the configurations that are concurrent anyway (partitioned sort or
// merge→load overlap, without SerialFinish), so the default and the
// fault-injection configurations keep the exact single-goroutine read
// order they have today.
func (b *builder) mergeOpts() extsort.MergeOptions {
	return extsort.MergeOptions{
		Readahead: !b.opts.SerialFinish && (b.opts.SortPartitions > 1 || b.opts.MergeOverlap),
	}
}

// noteMerge records a merge's fan-in and tells the tracker the load phase's
// key total, called wherever a merger is opened.
func (b *builder) noteMerge(runs []extsort.RunMeta, counters []uint64) {
	met := extsort.MetricsFrom(b.db.Metrics())
	met.MergeFanIn.Observe(uint64(len(runs)))
	met.FanIn.Set(int64(len(runs)))
	b.st.BytesSpilled = 0
	for _, r := range runs {
		b.st.BytesSpilled += uint64(r.Bytes)
	}
	ms := extsort.MergeState{Runs: runs, Counters: counters}
	done, total := mergeProgress(&ms)
	b.prog.FinishPhase(progress.Sort)
	b.prog.SetTotal(progress.Load, total)
	if done > 0 {
		b.prog.Advance(progress.Load, done)
	}
}
