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
		if ss, err := extsort.DecodeSortState(state.SortState); err == nil {
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

// newSorter creates the build's run sorter with the engine's sort metrics
// attached.
func (b *builder) newSorter() *extsort.Sorter {
	s := extsort.NewSorter(b.db.FS(), sortPrefix(b.ix.ID), b.opts.SortMemory)
	s.SetMetrics(extsort.MetricsFrom(b.db.Metrics()))
	return s
}

// resumeSorter rebuilds the run sorter from a checkpointed sort state. The
// tree capacity is not durable state, so it comes from the current options.
func (b *builder) resumeSorter(sortState []byte) (*extsort.Sorter, []byte, error) {
	ss, err := extsort.DecodeSortState(sortState)
	if err != nil {
		return nil, nil, err
	}
	s, scanPos, err := extsort.ResumeSorterWithCapacity(b.db.FS(), ss, b.opts.SortMemory)
	if err != nil {
		return nil, nil, err
	}
	s.SetMetrics(extsort.MetricsFrom(b.db.Metrics()))
	return s, scanPos, nil
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
