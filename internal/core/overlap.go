package core

// Merge→load overlap: §2.2.2 observes that "the final merge phase of sort
// can be performed as keys are being inserted into the index". Here the
// merge hands decoded entries to the bottom-up loader in small batches
// through a bounded buffer, so run-file reads and leaf construction
// proceed concurrently. The batch boundaries are the quiescent hand-off
// points: each batch carries the merge-counter vector as of *after* its
// last entry, so a consumer that has loaded exactly that prefix can
// checkpoint (counters, loader position) as a consistent §5.2/§3.2.4 pair
// without stopping the producer more than one hand-off.

import (
	"onlineindex/internal/btree"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/progress"
)

// overlapBatchSize is the hand-off granularity in entries. Small enough
// that the loader never waits long for the first key of a batch, large
// enough that channel traffic is negligible against tournament work.
const overlapBatchSize = 256

// overlapDepth bounds the producer's lead, in batches: the merge stays at
// most overlapDepth hand-offs ahead of the loader.
const overlapDepth = 2

// loadBatch is one merge→load hand-off unit.
type loadBatch struct {
	entries  []btree.Entry
	state    extsort.MergeState // merge position after the batch's last entry
	merged   uint64             // absolute keys consumed after this batch
	keyBytes int                // bytes of the batch's key arena
	done     bool               // merge exhausted
	err      error
}

// nextLoadBatch consumes up to overlapBatchSize entries from the merger.
// The merge lends its items, and a batch may wait in the hand-off channel
// while the merge runs ahead, so each batch copies its keys into an arena
// of its own, sized by keyBytes (the previous batch's key bytes).
func nextLoadBatch(merger *extsort.Merger, merged uint64, keyBytes int) loadBatch {
	bt := loadBatch{merged: merged, entries: make([]btree.Entry, 0, overlapBatchSize)}
	arena := make([]byte, 0, keyBytes)
	for len(bt.entries) < overlapBatchSize {
		item, _, ok, err := merger.Next()
		if err != nil {
			bt.err = err
			return bt
		}
		if !ok {
			bt.done = true
			break
		}
		key, rid, err := decodeItem(item)
		if err != nil {
			bt.err = err
			return bt
		}
		start := len(arena)
		arena = append(arena, key...)
		bt.entries = append(bt.entries, btree.Entry{Key: arena[start:len(arena):len(arena)], RID: rid})
		bt.merged++
	}
	bt.keyBytes = len(arena)
	bt.state = merger.State()
	return bt
}

// overlapMerge drives merge batches into consume. Concurrent mode runs the
// producer on its own goroutine, at most overlapDepth batches ahead of the
// consumer. Serial mode alternates produce and consume on the calling
// goroutine: identical batches and hand-off points, single-goroutine I/O
// order — the shape the deterministic fault-injection harness sweeps.
// consume never runs concurrently with merger.Next, and the merger is
// quiescent again by the time overlapMerge returns.
func overlapMerge(merger *extsort.Merger, merged uint64, concurrent bool, consume func(loadBatch) error) error {
	if !concurrent {
		keyBytes := 0
		for {
			bt := nextLoadBatch(merger, merged, keyBytes)
			merged, keyBytes = bt.merged, bt.keyBytes
			if bt.err != nil {
				return bt.err
			}
			if err := consume(bt); err != nil {
				return err
			}
			if bt.done {
				return nil
			}
		}
	}
	ch := make(chan loadBatch, overlapDepth)
	stop := make(chan struct{})
	go func() {
		defer close(ch)
		m, keyBytes := merged, 0
		for {
			bt := nextLoadBatch(merger, m, keyBytes)
			m, keyBytes = bt.merged, bt.keyBytes
			select {
			case ch <- bt:
			case <-stop:
				return
			}
			if bt.err != nil || bt.done {
				return
			}
		}
	}()
	defer func() {
		// Unstick a blocked producer and wait it out (closing ch is its
		// last act), so the caller may close the merger afterwards.
		close(stop)
		for range ch {
		}
	}()
	for bt := range ch {
		if bt.err != nil {
			return bt.err
		}
		if err := consume(bt); err != nil {
			return err
		}
		if bt.done {
			return nil
		}
	}
	return nil
}

// loadOverlapped streams the merge into the loader through overlapMerge,
// checkpointing the (merge counters, loader position) pair only at batch
// boundaries, every ckptKeys keys. Returns the absolute number of keys
// consumed from the merge. A unique index reaches here only offline, where
// an adjacent duplicate — batches preserve adjacency, so the check spans
// their boundaries — is a genuine violation.
func (b *builder) loadOverlapped(merged uint64, ckptKeys int) (uint64, error) {
	sinceCkpt := 0
	var prev []byte
	err := overlapMerge(b.merger, merged, !b.opts.SerialFinish, func(bt loadBatch) error {
		if b.ix.Unique {
			for _, e := range bt.entries {
				if prev != nil && string(prev) == string(e.Key) {
					return &engine.UniqueViolationError{Index: b.ix.Name, Key: e.Key, Existing: e.RID}
				}
				prev = append(prev[:0], e.Key...)
			}
		}
		if err := b.loader.AddBatch(bt.entries); err != nil {
			return err
		}
		b.st.KeysInserted += uint64(len(bt.entries))
		merged = bt.merged
		b.prog.Advance(progress.Load, bt.merged)
		sinceCkpt += len(bt.entries)
		if ckptKeys > 0 && sinceCkpt >= ckptKeys {
			if err := b.checkpointLoad(bt.state); err != nil {
				return err
			}
			sinceCkpt = 0
		}
		return nil
	})
	return merged, err
}
