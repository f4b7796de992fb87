package btree

import (
	"fmt"

	"onlineindex/internal/buffer"
	"onlineindex/internal/enc"
	"onlineindex/internal/latch"
	"onlineindex/internal/page"
	"onlineindex/internal/types"
	"onlineindex/internal/wal"
)

// Redo applies one btree log record during restart recovery. Single-page
// records (entry operations) use the standard PageLSN guard; the multi-page
// split records guard each affected page independently, which is safe
// because the record itself is atomic in the log.
func Redo(pool *buffer.Pool, rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeIdxFormat:
		pl, err := DecodeFormat(rec.Payload)
		if err != nil {
			return err
		}
		var content *Node
		if len(pl.Content) == 0 {
			content = NewLeaf()
		} else {
			content, err = decodeContent(enc.NewReader(pl.Content))
			if err != nil {
				return err
			}
		}
		return redoReplace(pool, rec.PageID, rec.LSN, content)

	case wal.TypeIdxInsert, wal.TypeIdxDelete, wal.TypeIdxPseudoDel, wal.TypeIdxReactivate:
		pl, err := DecodeEntry(rec.Payload)
		if err != nil {
			return err
		}
		return redoEntry(pool, rec, pl)

	case wal.TypeIdxMultiInsert:
		pl, err := DecodeMultiInsert(rec.Payload)
		if err != nil {
			return err
		}
		return withNodeX(pool, rec.PageID, func(f *buffer.Frame, n *Node) error {
			if n.PageLSN() >= rec.LSN {
				return nil
			}
			for _, e := range pl.Entries {
				i, exact := n.searchLeaf(e.Key, e.RID)
				if exact {
					return fmt.Errorf("btree: redo multi-insert LSN %d: entry already present", rec.LSN)
				}
				n.insertEntryAt(i, e)
			}
			f.MarkDirty(rec.LSN)
			return nil
		})

	case wal.TypeIdxInsertNoop:
		return nil // undo-only: nothing to redo

	case wal.TypeIdxSplit:
		pl, err := DecodeSplit(rec.Payload)
		if err != nil {
			return err
		}
		return redoSplit(pool, rec, pl)

	case wal.TypeIdxNewRoot:
		pl, err := DecodeNewRoot(rec.Payload)
		if err != nil {
			return err
		}
		return redoNewRoot(pool, rec, pl)

	default:
		return fmt.Errorf("btree: redo of unexpected record type %s", rec.Type)
	}
}

// withNodeX runs fn with the page pinned and X-latched.
func withNodeX(pool *buffer.Pool, pid types.PageID, fn func(f *buffer.Frame, n *Node) error) error {
	f, err := pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer pool.Unpin(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	n, ok := f.Page().(*Node)
	if !ok {
		return fmt.Errorf("btree: page %s is not a btree node", pid)
	}
	return fn(f, n)
}

// redoReplace formats/replaces the whole page content, creating the page if
// the file was never flushed that far.
func redoReplace(pool *buffer.Pool, pid types.PageID, lsn types.LSN, content *Node) error {
	f, err := pool.FetchOrCreate(pid, func() page.Page { return NewLeaf() }, lsn)
	if err != nil {
		return err
	}
	defer pool.Unpin(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	n, ok := f.Page().(*Node)
	if !ok {
		return fmt.Errorf("btree: page %s is not a btree node", pid)
	}
	if n.PageLSN() >= lsn {
		return nil
	}
	hdr := n.Header // keep LSN bookkeeping, then overwrite content
	*n = *content
	n.Header = hdr
	f.MarkDirty(lsn)
	return nil
}

func redoEntry(pool *buffer.Pool, rec *wal.Record, pl EntryPayload) error {
	return withNodeX(pool, rec.PageID, func(f *buffer.Frame, n *Node) error {
		if n.PageLSN() >= rec.LSN {
			return nil
		}
		i, exact := n.searchLeaf(pl.Key, pl.RID)
		switch rec.Type {
		case wal.TypeIdxInsert:
			if exact {
				return fmt.Errorf("btree: redo insert LSN %d: entry already present", rec.LSN)
			}
			n.insertEntryAt(i, Entry{Key: pl.Key, RID: pl.RID, Pseudo: pl.Pseudo})
		case wal.TypeIdxDelete:
			if !exact {
				return fmt.Errorf("btree: redo delete LSN %d: entry missing", rec.LSN)
			}
			n.removeEntryAt(i)
		case wal.TypeIdxPseudoDel:
			if !exact {
				return fmt.Errorf("btree: redo pseudo-delete LSN %d: entry missing", rec.LSN)
			}
			n.entries[i].Pseudo = true
		case wal.TypeIdxReactivate:
			if !exact {
				return fmt.Errorf("btree: redo reactivate LSN %d: entry missing", rec.LSN)
			}
			n.entries[i].Pseudo = false
		}
		f.MarkDirty(rec.LSN)
		return nil
	})
}

func redoSplit(pool *buffer.Pool, rec *wal.Record, pl SplitPayload) error {
	file := rec.PageID.File

	// Right page: create with the logged content.
	rightContent, err := decodeContent(enc.NewReader(pl.RightContent))
	if err != nil {
		return err
	}
	if err := redoReplace(pool, types.PageID{File: file, Page: pl.Right}, rec.LSN, rightContent); err != nil {
		return err
	}

	// Left page: truncate at the keep count.
	err = withNodeX(pool, types.PageID{File: file, Page: pl.Left}, func(f *buffer.Frame, n *Node) error {
		if n.PageLSN() >= rec.LSN {
			return nil
		}
		cut := int(pl.KeepCount)
		if cut > n.keyCount() {
			return fmt.Errorf("btree: redo split LSN %d: keep %d > %d keys", rec.LSN, cut, n.keyCount())
		}
		n.keepFirst(cut, pl.LeftNext)
		f.MarkDirty(rec.LSN)
		return nil
	})
	if err != nil {
		return err
	}

	// Parent page: insert the promoted separator.
	return withNodeX(pool, types.PageID{File: file, Page: pl.Parent}, func(f *buffer.Frame, n *Node) error {
		if n.PageLSN() >= rec.LSN {
			return nil
		}
		i := n.searchChild(pl.SepKey, pl.SepRID)
		n.insertSepAt(i, sep{key: pl.SepKey, rid: pl.SepRID}, pl.Right)
		f.MarkDirty(rec.LSN)
		return nil
	})
}

func redoNewRoot(pool *buffer.Pool, rec *wal.Record, pl NewRootPayload) error {
	file := rec.PageID.File
	c1, err := decodeContent(enc.NewReader(pl.C1Content))
	if err != nil {
		return err
	}
	if err := redoReplace(pool, types.PageID{File: file, Page: pl.Child1}, rec.LSN, c1); err != nil {
		return err
	}
	c2, err := decodeContent(enc.NewReader(pl.C2Content))
	if err != nil {
		return err
	}
	if err := redoReplace(pool, types.PageID{File: file, Page: pl.Child2}, rec.LSN, c2); err != nil {
		return err
	}
	root, err := decodeContent(enc.NewReader(pl.RootContent))
	if err != nil {
		return err
	}
	return redoReplace(pool, rec.PageID, rec.LSN, root)
}
