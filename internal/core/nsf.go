package core

import (
	"runtime"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/engine"
	"onlineindex/internal/progress"
)

// insert is the No Side-File algorithm's insert step (§2): the merged keys
// go into the tree through the multi-key interface with the
// remembered-path cursor, in BatchSize batches, and the highest inserted
// key is checkpointed every CheckpointKeys keys. Transactions maintain the
// index directly from the descriptor on, so duplicates lost to their races
// are rejected without logging, and unique conflicts run the
// both-records-locked verification (resolveConflict).
func (b *builder) insert() error {
	tree, err := b.db.TreeOf(b.ix.ID)
	if err != nil {
		return err
	}
	start := time.Now()
	cursor := &btree.IBCursor{}
	// The merge lends its items, so the batch copies its keys into arena.
	// Both reset only once the batch empties: conflict retries reslice
	// batch, and its keys must stay put until then.
	ents := make([]btree.Entry, 0, b.opts.BatchSize)
	batch := ents
	var arena []byte
	var sinceCkpt int
	var lastItem []byte
	// merged counts every key consumed from the merge (absolute, so it lines
	// up with the counter vector a resumed merger starts from).
	var merged uint64
	for _, c := range b.merger.Counters() {
		merged += c
	}

	flush := func() error {
		retries := 0
		for len(batch) > 0 {
			res, conflict, at, err := tree.IBInsertBatch(b.tx, batch, cursor)
			b.st.KeysInserted += uint64(res.Inserted)
			b.st.KeysSkipped += uint64(res.Skipped)
			if err != nil || conflict == nil {
				batch, arena = ents[:0], arena[:0]
				return err
			}
			if at > 0 {
				retries = 0 // a new entry heads the batch
			}
			retry, err := b.resolveConflict(tree, batch[at], conflict)
			switch {
			case err != nil:
				return err
			case !retry:
				if batch, retries = batch[at+1:], 0; len(batch) == 0 {
					batch, arena = ents[:0], arena[:0]
				}
			case retries == maxConflictRetries:
				return errConflictLoop
			default:
				batch = batch[at:]
				retries++
			}
		}
		return nil
	}

	for {
		item, _, ok, err := b.merger.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key, rid, err := decodeItem(item)
		if err != nil {
			return err
		}
		start := len(arena)
		arena = append(arena, key...)
		batch = append(batch, btree.Entry{Key: arena[start:len(arena):len(arena)], RID: rid})
		lastItem = item
		merged++
		if len(batch) >= b.opts.BatchSize {
			if err := flush(); err != nil {
				return err
			}
			b.prog.Advance(progress.Load, merged)
			// Yield between batches. NSF transactions maintain this tree
			// throughout the loop, and beside a builder that keeps its
			// processor busy, one woken onto that processor would wait out
			// a scheduler quantum before it runs.
			runtime.Gosched()
		}
		sinceCkpt++
		if b.opts.CheckpointKeys > 0 && sinceCkpt >= b.opts.CheckpointKeys {
			if err := flush(); err != nil {
				return err
			}
			b.prog.Advance(progress.Load, merged)
			ms := b.merger.State()
			st := engine.IBState{
				Index: b.ix.ID, Phase: engine.IBPhaseInsert,
				MergeState: ms.Encode(), HighKey: append([]byte(nil), lastItem...),
			}
			if err := b.rotate(st); err != nil {
				return err
			}
			sinceCkpt = 0
		}
	}
	if err := flush(); err != nil {
		return err
	}
	b.prog.Advance(progress.Load, merged)
	b.prog.FinishPhase(progress.Load)
	b.st.Insert += time.Since(start)
	return nil
}
