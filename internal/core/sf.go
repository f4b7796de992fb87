package core

import (
	"fmt"
	"sort"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/lock"
	"onlineindex/internal/progress"
	"onlineindex/internal/sidefile"
	"onlineindex/internal/types"
)

// load merges the sorted runs into the bottom-up loader — no logging, no
// traversals, sequential page allocation. It is the SF load step (§3.2.4)
// and the offline baseline's. SF checkpoints the (merge counters, loader
// state) pair every CheckpointKeys keys and verifies adjacent duplicates
// of a unique index under the §2.2.3 protocol; offline, with the table
// quiesced, takes no checkpoints and has nothing to re-verify: an adjacent
// duplicate is a genuine violation.
func (b *builder) load() error {
	tree, err := b.db.TreeOf(b.ix.ID)
	if err != nil {
		return err
	}
	start := time.Now()
	if b.loader == nil {
		b.loader = tree.NewLoader(b.opts.FillFactor)
	}
	// merged counts keys consumed from the merge (absolute, aligned with the
	// counter vector a resumed merger starts from).
	var merged uint64
	for _, c := range b.merger.Counters() {
		merged += c
	}
	online := b.ctl != nil
	ckptKeys := 0
	if online {
		ckptKeys = b.opts.CheckpointKeys
	}
	if merged, err = b.loadSerial(merged, ckptKeys); err != nil {
		return err
	}
	if err := b.loader.Finish(); err != nil {
		return err
	}
	b.prog.Advance(progress.Load, merged)
	b.prog.FinishPhase(progress.Load)
	// Durability boundary: the loaded (unlogged) tree must be on disk before
	// the index completes, or before logged side-file processing starts
	// referencing it.
	if err := b.db.Pool().FlushFile(b.ix.FileID); err != nil {
		return err
	}
	if online {
		st := engine.IBState{Index: b.ix.ID, Phase: engine.IBPhaseSideFile, CurrentRID: types.MaxRID, SFPos: 0}
		if err := b.rotate(st); err != nil {
			return err
		}
	}
	b.st.Insert += time.Since(start)
	return nil
}

// loadSerial streams the merge into the loader one entry at a time. Returns
// the absolute number of keys consumed from the merge.
func (b *builder) loadSerial(merged uint64, ckptKeys int) (uint64, error) {
	// For a unique index, the sorted stream makes duplicate key values
	// adjacent; hold one entry back so a duplicate pair can be verified
	// before anything reaches the loader. pendMergeState remembers the merge
	// position from before the held-back entry was consumed, so checkpoints
	// never lose it. The held-back entry outlives the merger's item, so its
	// key is a copy: pend.Key and spare are two buffers that swap whenever
	// the incoming entry (copied into spare) is held back in pend's place.
	var pend btree.Entry
	havePend := false
	var spare []byte
	var pendMergeState extsort.MergeState
	// verifyDup settles a duplicate key value between pend and next under
	// the §2.2.3 protocol: it reports which records still carry the key,
	// and fails when both do (or, offline, at once).
	verifyDup := func(next btree.Entry) (okPend, okNext bool, err error) {
		violation := &engine.UniqueViolationError{Index: b.ix.Name, Key: next.Key, Existing: pend.RID}
		if b.ctl == nil {
			return false, false, violation
		}
		// Lock both records S and re-extract their keys.
		if err := b.tx.Lock(lock.RecordName(pend.RID), lock.S); err != nil {
			return false, false, err
		}
		if err := b.tx.Lock(lock.RecordName(next.RID), lock.S); err != nil {
			return false, false, err
		}
		if okPend, err = b.recordHasKey(pend.RID, pend.Key); err != nil {
			return false, false, err
		}
		if okNext, err = b.recordHasKey(next.RID, next.Key); err != nil {
			return false, false, err
		}
		if okPend && okNext {
			return false, false, violation
		}
		return okPend, okNext, nil
	}

	sinceCkpt := 0
	for {
		var preState extsort.MergeState
		if b.ix.Unique && ckptKeys > 0 {
			// Snapshot the merge position before consuming the item that
			// may become the held-back entry (checkpoint repositioning).
			preState = b.merger.State()
		}
		item, _, ok, err := b.merger.Next()
		if err != nil {
			return merged, err
		}
		if !ok {
			break
		}
		key, rid, err := decodeItem(item)
		if err != nil {
			return merged, err
		}
		merged++
		if merged%64 == 0 {
			b.prog.Advance(progress.Load, merged)
		}
		if b.ix.Unique {
			spare = append(spare[:0], key...)
			e := btree.Entry{Key: spare, RID: rid}
			switch {
			case !havePend:
				pend, spare, havePend, pendMergeState = e, pend.Key, true, preState
			case string(pend.Key) == string(e.Key):
				okPend, okNext, err := verifyDup(e)
				switch {
				case err != nil:
					return merged, err
				case okPend:
					// next's record changed since extraction: drop next, keep pend.
				case okNext:
					pend, spare = e, pend.Key // pend's record changed: replace
				default:
					havePend = false // both gone
					continue
				}
			default:
				if err := b.loader.Add(pend); err != nil {
					return merged, err
				}
				b.st.KeysInserted++
				pend, spare, pendMergeState = e, pend.Key, preState
			}
		} else {
			if err := b.loader.Add(btree.Entry{Key: key, RID: rid}); err != nil {
				return merged, err
			}
			b.st.KeysInserted++
		}
		sinceCkpt++
		if ckptKeys > 0 && sinceCkpt >= ckptKeys {
			ms := b.merger.State()
			if havePend {
				ms = pendMergeState // resume re-reads the held-back entry
			}
			if err := b.checkpointLoad(ms); err != nil {
				return merged, err
			}
			sinceCkpt = 0
		}
	}
	if havePend {
		if err := b.loader.Add(pend); err != nil {
			return merged, err
		}
		b.st.KeysInserted++
	}
	return merged, nil
}

// checkpointLoad commits a load checkpoint: the loader state (taking it
// flushes the index file first) paired with merge position ms. Durable
// progress is what the checkpoint records — the (possibly repositioned)
// counter vector, not the in-memory consumption.
func (b *builder) checkpointLoad(ms extsort.MergeState) error {
	ls, err := b.loader.Checkpoint()
	if err != nil {
		return err
	}
	done, _ := mergeProgress(&ms)
	b.prog.Advance(progress.Load, done)
	return b.rotate(engine.IBState{
		Index: b.ix.ID, Phase: engine.IBPhaseLoad, CurrentRID: types.MaxRID,
		MergeState: ms.Encode(), LoadState: ls.Encode(),
	})
}

// applySideFile is the SF side-file step (§3.2.5): apply the captured
// entries from the recorded position on, logging like a normal transaction
// and checkpointing the position; once the side-file is drained, freeze
// appends, drain the stragglers and switch the index to direct
// maintenance.
func (b *builder) applySideFile() error {
	pos := b.sfPos
	tree, err := b.db.TreeOf(b.ix.ID)
	if err != nil {
		return err
	}
	sf, err := b.db.SideFileOf(b.ix.ID)
	if err != nil {
		return err
	}
	start := time.Now()
	const batch = 256
	// "sidefile.applied" mirrors the builder's apply position on the
	// registry; the side-file's "sidefile.entries" gauge minus this counter
	// is the catch-up backlog a monitor watches drain to zero. Seeded with
	// the resume position so the difference is the true remaining backlog.
	appliedCtr := b.db.Metrics().Counter("sidefile.applied")
	appliedCtr.Add(pos)
	b.prog.SetTotal(progress.SideFile, sf.Count())
	last := pos
	noteApplied := func(pos uint64) {
		appliedCtr.Add(pos - last)
		last = pos
		b.prog.SetTotal(progress.SideFile, sf.Count())
		b.prog.Advance(progress.SideFile, pos)
	}

	if b.opts.SortSideFile && pos == 0 {
		// §3.2.5's performance option: apply the entries accumulated so far
		// in sorted order (stable, so identical keys keep their relative
		// positions); the tail appended meanwhile is processed sequentially
		// below. Restart granularity is the whole sorted pass.
		count := sf.Count()
		if count > 0 {
			entries, next, err := sf.Read(0, int(count))
			if err != nil {
				return err
			}
			sort.SliceStable(entries, func(i, j int) bool {
				return btree.CompareEntry(entries[i].Key, entries[i].RID, entries[j].Key, entries[j].RID) < 0
			})
			for _, e := range entries {
				if err := b.applySideFileEntry(tree, e); err != nil {
					return err
				}
			}
			pos = next
			b.st.SideFileApplied += uint64(len(entries))
			noteApplied(pos)
			st := engine.IBState{Index: b.ix.ID, Phase: engine.IBPhaseSideFile, CurrentRID: types.MaxRID, SFPos: pos}
			if err := b.rotate(st); err != nil {
				return err
			}
		}
	}

	var sinceCkpt int
	for {
		entries, next, err := sf.Read(pos, batch)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			// Possibly caught up: freeze appends, drain stragglers, switch.
			b.ctl.FreezeAppends()
			entries, next, err = sf.Read(pos, 1<<30)
			if err != nil {
				b.ctl.UnfreezeAppends()
				return err
			}
			for _, e := range entries {
				if err := b.applySideFileEntry(tree, e); err != nil {
					b.ctl.UnfreezeAppends()
					return err
				}
			}
			b.st.SideFileApplied += uint64(len(entries))
			pos = next
			noteApplied(pos)

			// The switch: "after processing the last entry in the side-file,
			// IB resets the Index_Build flag so that subsequently
			// transactions would modify the index directly."
			if err := b.db.SetIndexComplete(b.tx, b.ix.ID); err != nil {
				b.ctl.UnfreezeAppends()
				return err
			}
			b.ctl.SetPhase(engine.PhaseDirect)
			b.ctl.UnfreezeAppends()
			if err := b.tx.Commit(); err != nil {
				return err
			}
			break
		}
		for _, e := range entries {
			if err := b.applySideFileEntry(tree, e); err != nil {
				return err
			}
		}
		b.st.SideFileApplied += uint64(len(entries))
		pos = next
		noteApplied(pos)
		sinceCkpt += len(entries)
		if b.opts.CheckpointKeys > 0 && sinceCkpt >= b.opts.CheckpointKeys {
			st := engine.IBState{Index: b.ix.ID, Phase: engine.IBPhaseSideFile, CurrentRID: types.MaxRID, SFPos: pos}
			if err := b.rotate(st); err != nil {
				return err
			}
			sinceCkpt = 0
		}
	}
	b.st.SideFile += time.Since(start)
	b.st.SideFileLen = sf.Count()
	b.prog.FinishPhase(progress.SideFile)
	return nil
}

// applySideFileEntry applies one <operation, key> tuple "as a normal
// transaction would do" (§3.2.5), including the unique-conflict protocol.
func (b *builder) applySideFileEntry(tree *btree.Tree, e sidefile.Entry) error {
	switch e.Op {
	case sidefile.OpInsert:
		for attempt := 0; attempt < maxConflictRetries; attempt++ {
			_, conflict, err := tree.TxnInsert(b.tx, e.Key, e.RID)
			if err != nil || conflict == nil {
				return err
			}
			retry, err := b.resolveConflict(tree, btree.Entry{Key: e.Key, RID: e.RID}, conflict)
			if err != nil || !retry {
				return err
			}
		}
		return errConflictLoop
	case sidefile.OpDelete:
		_, err := tree.TxnPseudoDelete(b.tx, e.Key, e.RID)
		return err
	default:
		return fmt.Errorf("side-file entry with unknown op %v", e.Op)
	}
}
