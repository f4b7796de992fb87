package btree

import (
	"fmt"

	"onlineindex/internal/buffer"
	"onlineindex/internal/enc"
	"onlineindex/internal/latch"
	"onlineindex/internal/rm"
	"onlineindex/internal/types"
	"onlineindex/internal/wal"
)

// makeRoom performs the structure modifications needed for the leaf covering
// (key, rid) to absorb one more entry of that key size. It runs under the
// exclusive tree latch, so no other operation is in the tree; the caller
// retries its insert afterwards.
//
// Each iteration splits exactly one node: the lowest node on the path that
// needs splitting and whose parent can absorb the promoted separator (or the
// root, which grows by copying itself into two children). Splits are logged
// as single redo-only records covering every page they touch, which makes
// them atomic with respect to durability (see SplitPayload) — they are never
// undone, matching the paper's treatment of page splits as nested top
// actions.
//
// ibMode selects the index builder's specialised split (§2.3.1): instead of
// moving half the entries, only the keys *higher* than IB's insert position
// move to the new leaf, so keys previously inserted by transactions are not
// shuffled through "a large number of leaf pages" and the resulting tree
// approaches bottom-up clustering.
func (t *Tree) makeRoom(tl rm.TxnLogger, key []byte, rid types.RID, ibMode bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	for iter := 0; ; iter++ {
		if iter > 128 {
			return fmt.Errorf("btree: makeRoom did not converge")
		}
		// Collect the root-to-leaf path. No page latches are needed: the
		// exclusive tree latch excludes every other tree operation, and the
		// per-node mutations below are wrapped in X latches only to keep
		// the buffer pool's flusher from marshalling a half-mutated page.
		var frames []*buffer.Frame
		var nodes []*Node
		release := func() {
			for _, f := range frames {
				t.pool.Unpin(f)
			}
		}
		f, err := t.pool.Fetch(t.pid(RootPage))
		if err != nil {
			return err
		}
		frames = append(frames, f)
		nodes = append(nodes, f.Page().(*Node))
		for !nodes[len(nodes)-1].leaf {
			n := nodes[len(nodes)-1]
			child := n.children[n.searchChild(key, rid)]
			cf, err := t.pool.Fetch(t.pid(child))
			if err != nil {
				release()
				return err
			}
			frames = append(frames, cf)
			nodes = append(nodes, cf.Page().(*Node))
		}
		leaf := nodes[len(nodes)-1]
		if leaf.hasRoomEntry(key, t.budget) {
			release()
			return nil
		}

		// Find the lowest node that must split and can: walk up from the
		// leaf while the parent cannot absorb the separator the split would
		// promote.
		level := len(nodes) - 1
		var promoted sep
		for {
			promoted = t.splitPromotes(nodes[level], key, rid, ibMode && nodes[level].leaf)
			if level == 0 {
				break // root split: no parent to worry about
			}
			if nodes[level-1].hasRoomSep(promoted.key, t.budget) {
				break
			}
			level--
		}

		if level == 0 {
			err = t.splitRoot(tl, frames[0], nodes[0], key, rid, ibMode)
		} else {
			err = t.splitChild(tl, frames[level-1], nodes[level-1], frames[level], nodes[level], promoted, key, rid, ibMode)
		}
		release()
		if err != nil {
			return err
		}
	}
}

// splitPlan returns the cut position for splitting node n to make room for
// (key, rid). For leaves in ibMode the cut is the insert position itself —
// unless that position is 0: cutting there moves every entry to the right
// node, which the pending key (equal to the promoted separator) then
// descends into, still full — no progress, makeRoom loops forever. That
// arises when IB's key sorts below everything in the leaf, e.g. a leaf
// holding only transaction-made tombstones for higher seed keys; use the
// ordinary median split instead, which frees space on the left side the
// pending key descends into.
func (t *Tree) splitPlan(n *Node, key []byte, rid types.RID, ibLeaf bool) int {
	if n.leaf {
		pos, _ := n.searchLeaf(key, rid)
		if ibLeaf && pos > 0 {
			return pos
		}
		cut := len(n.entries) / 2
		if cut == 0 && len(n.entries) > 0 {
			cut = 1
		}
		return cut
	}
	cut := len(n.seps) / 2
	if cut >= len(n.seps) {
		cut = len(n.seps) - 1
	}
	return cut
}

// splitPromotes returns the separator a split of n would promote.
func (t *Tree) splitPromotes(n *Node, key []byte, rid types.RID, ibLeaf bool) sep {
	cut := t.splitPlan(n, key, rid, ibLeaf)
	if n.leaf {
		pos, _ := n.searchLeaf(key, rid)
		if pos >= cut {
			// The pending entry will land in the right node; the separator
			// must not exceed it.
			if cut == len(n.entries) || CompareEntry(key, rid, n.entries[cut].Key, n.entries[cut].RID) < 0 {
				return sep{key: key, rid: rid}
			}
		}
		return sep{key: n.entries[cut].Key, rid: n.entries[cut].RID}
	}
	return n.seps[cut]
}

// splitChild splits node `child` (which has a parent with room), promoting
// `promoted` into the parent, and logs the whole modification as one record.
func (t *Tree) splitChild(tl rm.TxnLogger, pf *buffer.Frame, parent *Node, cf *buffer.Frame, child *Node, promoted sep, key []byte, rid types.RID, ibMode bool) error {
	cut := t.splitPlan(child, key, rid, ibMode && child.leaf)

	right := t.buildRight(child, cut)
	rf, err := t.pool.NewPage(t.file, right)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(rf)

	// Log first (single atomic record), then mutate.
	rcw := enc.NewWriter()
	right.encodeContent(rcw)
	pl := SplitPayload{
		Left:         cf.ID.Page,
		KeepCount:    uint32(cut),
		LeftNext:     rf.ID.Page,
		Right:        rf.ID.Page,
		RightContent: rcw.Bytes(),
		Parent:       pf.ID.Page,
		SepKey:       promoted.key,
		SepRID:       promoted.rid,
	}
	lsn, err := tl.Log(&wal.Record{
		Type: wal.TypeIdxSplit, Flags: wal.FlagRedo,
		PageID: cf.ID, Payload: pl.Encode(),
	})
	if err != nil {
		return err
	}

	t.truncateLeft(cf, child, cut, rf.ID.Page, lsn)
	rf.MarkDirty(lsn)
	t.applyParentAdd(pf, parent, promoted, rf.ID.Page, lsn)
	t.Stats.Splits.Add(1)
	t.met.Splits.Inc()
	return nil
}

// buildRight constructs the right node of a split of n at cut (without
// mutating n).
func (t *Tree) buildRight(n *Node, cut int) *Node {
	if n.leaf {
		right := NewLeaf()
		right.next = n.next
		right.adoptEntries(n.entries[cut:])
		return right
	}
	children := append([]types.PageNum(nil), n.children[cut+1:]...)
	return newInternalCopy(children, n.seps[cut+1:])
}

// adoptEntries gives an empty leaf copies of es, their keys in a slab of
// its own.
func (n *Node) adoptEntries(es []Entry) {
	n.entries = append(make([]Entry, 0, len(es)), es...)
	n.relocate(0)
	n.resetPrefix()
}

// keepFirst cuts n down to its first cut entries (a leaf, whose right
// sibling becomes next) or separators, the left half of a split, and
// rebuilds its prefix and used.
func (n *Node) keepFirst(cut int, next types.PageNum) {
	if n.leaf {
		n.entries = n.entries[:cut]
		n.next = next
	} else {
		n.seps = n.seps[:cut]
		n.children = n.children[:cut+1]
	}
	n.resetPrefix()
}

// newInternalCopy is NewInternal over copies of seps, their keys in a slab
// of the new node's own.
func newInternalCopy(children []types.PageNum, seps []sep) *Node {
	n := NewInternal(children, append(make([]sep, 0, len(seps)), seps...))
	n.relocate(0)
	return n
}

// truncateLeft applies the left half of a split to the existing node.
func (t *Tree) truncateLeft(f *buffer.Frame, n *Node, cut int, next types.PageNum, lsn types.LSN) {
	f.Latch.Acquire(latch.X)
	n.keepFirst(cut, next)
	f.MarkDirty(lsn)
	f.Latch.Release(latch.X)
}

// applyParentAdd inserts (promoted, rightChild) into the parent.
func (t *Tree) applyParentAdd(f *buffer.Frame, parent *Node, promoted sep, right types.PageNum, lsn types.LSN) {
	f.Latch.Acquire(latch.X)
	i := parent.searchChild(promoted.key, promoted.rid)
	parent.insertSepAt(i, promoted, right)
	f.MarkDirty(lsn)
	f.Latch.Release(latch.X)
}

// splitRoot grows the tree by one level: the root's content is copied into
// two new children and the root becomes an internal node over them, so the
// root page number never changes ("the next two index pages are allocated
// with one of them becoming the new root", §2.3.1 — anchored at page 0 in
// this implementation).
func (t *Tree) splitRoot(tl rm.TxnLogger, rootF *buffer.Frame, root *Node, key []byte, rid types.RID, ibMode bool) error {
	cut := t.splitPlan(root, key, rid, ibMode && root.leaf)
	promoted := t.splitPromotes(root, key, rid, ibMode && root.leaf)

	right := t.buildRight(root, cut)
	var left *Node
	if root.leaf {
		left = NewLeaf()
		left.adoptEntries(root.entries[:cut])
	} else {
		children := append([]types.PageNum(nil), root.children[:cut+1]...)
		left = newInternalCopy(children, root.seps[:cut])
	}

	lf, err := t.pool.NewPage(t.file, left)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(lf)
	rfr, err := t.pool.NewPage(t.file, right)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(rfr)
	if left.leaf {
		left.next = rfr.ID.Page
		// right.next already carries the old root's next (NoPage for a root
		// leaf).
	}

	newRoot := NewInternal(
		[]types.PageNum{lf.ID.Page, rfr.ID.Page},
		[]sep{{key: append([]byte(nil), promoted.key...), rid: promoted.rid}},
	)

	lw, rw, nw := enc.NewWriter(), enc.NewWriter(), enc.NewWriter()
	left.encodeContent(lw)
	right.encodeContent(rw)
	newRoot.encodeContent(nw)
	pl := NewRootPayload{
		RootContent: nw.Bytes(),
		Child1:      lf.ID.Page, C1Content: lw.Bytes(),
		Child2: rfr.ID.Page, C2Content: rw.Bytes(),
	}
	lsn, err := tl.Log(&wal.Record{
		Type: wal.TypeIdxNewRoot, Flags: wal.FlagRedo,
		PageID: rootF.ID, Payload: pl.Encode(),
	})
	if err != nil {
		return err
	}

	lf.MarkDirty(lsn)
	rfr.MarkDirty(lsn)
	rootF.Latch.Acquire(latch.X)
	*root = *newRoot
	rootF.MarkDirty(lsn)
	rootF.Latch.Release(latch.X)
	t.Stats.Splits.Add(1)
	t.Stats.RootSplits.Add(1)
	t.met.Splits.Inc()
	t.met.RootSplits.Inc()
	return nil
}
