// Package btree implements the B+-tree index manager, following the parts of
// ARIES/IM the paper builds on:
//
//   - Index entries are <key value, RID> pairs; a unique index allows at
//     most one non-pseudo-deleted entry per key value (§1.1).
//   - Every entry carries a 1-bit pseudo-deleted flag: deletes are logical
//     ("this is done, for example, in the case of IMS indexes"), which lets
//     deleters skip next-key locking and leaves the tombstones the NSF
//     algorithm needs to win its races with the index builder (§2.1.2).
//   - Entry-level changes are logged undo-redo (or undo-only for the
//     "transaction found IB's key already present" case); page splits are
//     redo-only nested top actions that are never undone — undo of an entry
//     operation is logical, re-traversing from the root.
//   - A multi-key insert interface and a remembered-path fast path keep the
//     NSF index builder's insert phase cheap (§2.3.1), and a specialised
//     split that moves only the keys higher than IB's insert point mimics a
//     bottom-up build's clustering.
//   - A bottom-up loader builds the tree without logging for the SF
//     algorithm, with checkpoints (highest key + page count + rightmost
//     path) that restart can truncate back to (§3.2.4).
//
// Concurrency: every operation runs under a tree latch in share mode with
// page latches underneath (S on internal nodes while descending, X on the
// leaves modified). Structure modifications (splits) retry the operation
// under the tree latch in exclusive mode, so ordinary operations on
// different leaves proceed in parallel and never deadlock: latch order is
// root→leaf, left→right, and nobody waits for the exclusive tree latch
// while holding a page latch.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"onlineindex/internal/page"
	"onlineindex/internal/types"
)

func init() {
	page.Register(page.KindBTree, func() page.Page { return &Node{} })
}

// NoPage marks "no next leaf" in the leaf chain.
const NoPage types.PageNum = ^types.PageNum(0)

// Entry is one leaf entry: <key value, RID> plus the pseudo-deleted flag.
type Entry struct {
	Key    []byte
	RID    types.RID
	Pseudo bool
}

// CompareEntry orders entries by (key value, RID): the full-key ordering of
// a nonunique index, where "the key must match completely (<key value, RID>)
// for rejection".
func CompareEntry(aKey []byte, aRID types.RID, bKey []byte, bRID types.RID) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	return aRID.Compare(bRID)
}

// sep is a separator in an internal node: the smallest (key, RID) reachable
// through the child to its right.
type sep struct {
	key []byte
	rid types.RID
}

// Node is a B+-tree page: leaf or internal.
//
// Internal layout: children[0..n] and seps[0..n-1]; child i+1 holds entries
// >= seps[i], child i holds entries < seps[i].
//
// A compressed node (comp set) stores its keys prefix-truncated on disk:
// the page image holds one per-page common prefix and each entry/separator
// records only its suffix. In memory keys are always full — only the
// marshalled image and the `used` accounting change — so search, insert and
// split logic is oblivious to compression except through the size helpers.
type Node struct {
	page.Header
	leaf   bool
	comp   bool   // keys are prefix-truncated against `prefix` on disk
	prefix []byte // per-page common prefix (comp only; prefix of every key)

	// leaf fields
	entries []Entry
	next    types.PageNum // right sibling (NoPage at the right edge)

	// internal fields
	seps     []sep
	children []types.PageNum

	used int // bytes the marshalled image needs
}

const nodeFixed = page.HeaderSize + 1 + 2 + 4 // header, flags, count, next

// compFixed is the extra fixed cost of a compressed image: the u16 prefix
// length (the prefix bytes themselves are counted separately).
const compFixed = 2

// Page-image flag bits (the byte after the header).
const (
	flagLeaf = 1 << 0
	flagComp = 1 << 1
)

// NewLeaf returns an empty leaf node.
func NewLeaf() *Node { return &Node{leaf: true, next: NoPage, used: nodeFixed} }

// NewLeafWith returns an empty leaf, compressed on request.
func NewLeafWith(compress bool) *Node {
	n := NewLeaf()
	if compress {
		n.comp = true
		n.used += compFixed
	}
	return n
}

// NewInternal returns an internal node with the given children and
// separators (len(children) == len(seps)+1).
func NewInternal(children []types.PageNum, seps []sep) *Node {
	n := &Node{leaf: false, next: NoPage, children: children, seps: seps, used: nodeFixed}
	n.used += 4 * len(children)
	for _, s := range seps {
		n.used += sepBytes(s.key)
	}
	return n
}

// NewInternalWith is NewInternal, compressed on request.
func NewInternalWith(children []types.PageNum, seps []sep, compress bool) *Node {
	n := NewInternal(children, seps)
	if compress {
		n.comp = true
		n.resetPrefix()
	}
	return n
}

func entryBytes(key []byte) int { return 2 + len(key) + 10 + 1 } // len, key, rid, flags
func sepBytes(key []byte) int   { return 2 + len(key) + 10 }

// entryRecBytes is the image cost of a leaf entry already covered by the
// current prefix.
func (n *Node) entryRecBytes(key []byte) int {
	if n.comp {
		return 2 + len(key) - len(n.prefix) + 10 + 1
	}
	return entryBytes(key)
}

// sepRecBytes is the image cost of a separator already covered by the
// current prefix.
func (n *Node) sepRecBytes(key []byte) int {
	if n.comp {
		return 2 + len(key) - len(n.prefix) + 10
	}
	return sepBytes(key)
}

// keyCount returns the number of keyed records (entries or separators).
func (n *Node) keyCount() int {
	if n.leaf {
		return len(n.entries)
	}
	return len(n.seps)
}

// entryAddCost is the growth of `used` if key were inserted as a leaf
// entry: on a compressed page that includes shrinking the common prefix to
// cover the new key (every existing suffix grows by the shrink).
func (n *Node) entryAddCost(key []byte) int {
	if !n.comp {
		return entryBytes(key)
	}
	return n.compAddCost(key) + 10 + 1
}

// sepAddCost is entryAddCost for a separator (no pseudo flag, no child —
// hasRoomSep adds the child pointer).
func (n *Node) sepAddCost(key []byte) int {
	if !n.comp {
		return sepBytes(key)
	}
	return n.compAddCost(key) + 10
}

// compAddCost is the shared part of the compressed-insert cost: the suffix
// record's length field and bytes, plus the prefix-shrink ripple.
func (n *Node) compAddCost(key []byte) int {
	cnt := n.keyCount()
	if cnt == 0 {
		// The page's first key becomes the prefix in full; its suffix is
		// empty.
		return (len(key) - len(n.prefix)) + 2
	}
	d := len(n.prefix) - commonPrefixLen(n.prefix, key)
	// cnt existing suffixes grow by d, the stored prefix shrinks by d, the
	// new suffix is key minus the shrunk prefix.
	return d*cnt - d + 2 + len(key) - (len(n.prefix) - d)
}

// adoptPrefix adjusts the page prefix to cover an incoming key. Must be
// called before the key is spliced in (keyCount still excludes it); the
// caller accounts for `used` via entryAddCost/sepAddCost.
func (n *Node) adoptPrefix(key []byte) {
	if !n.comp {
		return
	}
	if n.keyCount() == 0 {
		n.prefix = append(n.prefix[:0], key...)
		return
	}
	n.prefix = n.prefix[:commonPrefixLen(n.prefix, key)]
}

// commonPrefixLen returns the length of the longest common prefix of a and b.
func commonPrefixLen(a, b []byte) int {
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	i := 0
	for i < m && a[i] == b[i] {
		i++
	}
	return i
}

// resetPrefix recomputes the tightest per-page prefix (the common prefix of
// the first and last key — keys are sorted) and rebuilds `used`. Called
// after bulk restructuring (splits, truncations, content decode) where
// incremental accounting is not worth carrying through.
func (n *Node) resetPrefix() {
	if !n.comp {
		return
	}
	var first, last []byte
	if n.leaf {
		if len(n.entries) > 0 {
			first, last = n.entries[0].Key, n.entries[len(n.entries)-1].Key
		}
	} else if len(n.seps) > 0 {
		first, last = n.seps[0].key, n.seps[len(n.seps)-1].key
	}
	if first == nil {
		n.prefix = n.prefix[:0]
	} else {
		n.prefix = append(n.prefix[:0], first[:commonPrefixLen(first, last)]...)
	}
	n.used = n.computeUsed()
}

// computeUsed recomputes the marshalled image size from scratch; the
// invariant checker compares it against the incrementally maintained field.
func (n *Node) computeUsed() int {
	used := nodeFixed
	if n.comp {
		used += compFixed + len(n.prefix)
	}
	if n.leaf {
		for _, e := range n.entries {
			used += n.entryRecBytes(e.Key)
		}
		return used
	}
	used += 4 * len(n.children)
	for _, s := range n.seps {
		used += n.sepRecBytes(s.key)
	}
	return used
}

// Kind implements page.Page.
func (n *Node) Kind() page.Kind { return page.KindBTree }

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.leaf }

// Compressed reports whether the node stores prefix-truncated keys.
func (n *Node) Compressed() bool { return n.comp }

// Next returns the right-sibling page of a leaf.
func (n *Node) Next() types.PageNum { return n.next }

// NumEntries returns the number of leaf entries (including pseudo-deleted).
func (n *Node) NumEntries() int { return len(n.entries) }

// EntryAt returns leaf entry i.
func (n *Node) EntryAt(i int) Entry { return n.entries[i] }

// NumChildren returns the number of children of an internal node.
func (n *Node) NumChildren() int { return len(n.children) }

// ChildAt returns child i of an internal node.
func (n *Node) ChildAt(i int) types.PageNum { return n.children[i] }

// UsedBytes returns the marshalled size the node currently needs.
func (n *Node) UsedBytes() int { return n.used }

// hasRoomEntry reports whether a leaf can absorb an entry with this key.
func (n *Node) hasRoomEntry(key []byte, budget int) bool {
	return n.used+n.entryAddCost(key) <= budget
}

// hasRoomSep reports whether an internal node can absorb a separator+child.
func (n *Node) hasRoomSep(key []byte, budget int) bool {
	return n.used+n.sepAddCost(key)+4 <= budget
}

// searchLeaf returns the index of the first entry >= (key, rid), and whether
// that entry matches exactly.
func (n *Node) searchLeaf(key []byte, rid types.RID) (int, bool) {
	i := sort.Search(len(n.entries), func(i int) bool {
		return CompareEntry(n.entries[i].Key, n.entries[i].RID, key, rid) >= 0
	})
	exact := i < len(n.entries) && CompareEntry(n.entries[i].Key, n.entries[i].RID, key, rid) == 0
	return i, exact
}

// searchChild returns the child index to descend into for (key, rid).
func (n *Node) searchChild(key []byte, rid types.RID) int {
	return sort.Search(len(n.seps), func(i int) bool {
		return CompareEntry(n.seps[i].key, n.seps[i].rid, key, rid) > 0
	})
}

// insertEntryAt splices e into position i of a leaf.
func (n *Node) insertEntryAt(i int, e Entry) {
	n.used += n.entryAddCost(e.Key)
	n.adoptPrefix(e.Key)
	n.entries = append(n.entries, Entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = Entry{Key: append([]byte(nil), e.Key...), RID: e.RID, Pseudo: e.Pseudo}
}

// removeEntryAt removes leaf entry i. On a compressed page the prefix is
// left as-is (it stays a valid, merely possibly loose, common prefix).
func (n *Node) removeEntryAt(i int) {
	n.used -= n.entryRecBytes(n.entries[i].Key)
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
}

// insertSepAt splices separator s and its right child at position i.
func (n *Node) insertSepAt(i int, s sep, rightChild types.PageNum) {
	n.used += n.sepAddCost(s.key) + 4
	n.adoptPrefix(s.key)
	n.seps = append(n.seps, sep{})
	copy(n.seps[i+1:], n.seps[i:])
	n.seps[i] = sep{key: append([]byte(nil), s.key...), rid: s.rid}
	n.children = append(n.children, 0)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = rightChild
}

// MarshalPage implements page.Page.
//
// Compressed layout inserts [u16 prefixLen][prefix] between the next
// pointer and the count; entry and separator keys then store only the
// suffix past the prefix. Uncompressed pages keep the historical layout
// byte for byte.
func (n *Node) MarshalPage() ([]byte, error) {
	img := make([]byte, page.Size)
	n.MarshalHeader(img, page.KindBTree)
	off := page.HeaderSize
	var flags byte
	if n.leaf {
		flags |= flagLeaf
	}
	if n.comp {
		flags |= flagComp
	}
	img[off] = flags
	off++
	binary.LittleEndian.PutUint32(img[off:], uint32(n.next))
	off += 4
	plen := 0
	if n.comp {
		plen = len(n.prefix)
		if off+2+plen > page.Size {
			return nil, fmt.Errorf("btree: prefix overflow at %d bytes", off)
		}
		binary.LittleEndian.PutUint16(img[off:], uint16(plen))
		off += 2
		copy(img[off:], n.prefix)
		off += plen
	}
	if n.leaf {
		binary.LittleEndian.PutUint16(img[off:], uint16(len(n.entries)))
		off += 2
		for _, e := range n.entries {
			need := n.entryRecBytes(e.Key)
			if off+need > page.Size {
				return nil, fmt.Errorf("btree: leaf overflow at %d bytes", off)
			}
			suf := e.Key[plen:]
			binary.LittleEndian.PutUint16(img[off:], uint16(len(suf)))
			off += 2
			copy(img[off:], suf)
			off += len(suf)
			off = putRID(img, off, e.RID)
			if e.Pseudo {
				img[off] = 1
			}
			off++
		}
		return img, nil
	}
	binary.LittleEndian.PutUint16(img[off:], uint16(len(n.seps)))
	off += 2
	for _, c := range n.children {
		if off+4 > page.Size {
			return nil, fmt.Errorf("btree: internal overflow at %d bytes", off)
		}
		binary.LittleEndian.PutUint32(img[off:], uint32(c))
		off += 4
	}
	for _, s := range n.seps {
		need := n.sepRecBytes(s.key)
		if off+need > page.Size {
			return nil, fmt.Errorf("btree: internal overflow at %d bytes", off)
		}
		suf := s.key[plen:]
		binary.LittleEndian.PutUint16(img[off:], uint16(len(suf)))
		off += 2
		copy(img[off:], suf)
		off += len(suf)
		off = putRID(img, off, s.rid)
	}
	return img, nil
}

// UnmarshalPage implements page.Page.
func (n *Node) UnmarshalPage(img []byte) error {
	if _, err := n.UnmarshalHeader(img); err != nil {
		return err
	}
	off := page.HeaderSize
	flags := img[off]
	n.leaf = flags&flagLeaf != 0
	n.comp = flags&flagComp != 0
	off++
	n.next = types.PageNum(binary.LittleEndian.Uint32(img[off:]))
	off += 4
	n.used = nodeFixed
	n.prefix = nil
	if n.comp {
		plen := int(binary.LittleEndian.Uint16(img[off:]))
		off += 2
		if off+plen > len(img) {
			return fmt.Errorf("btree: corrupt compressed node (prefix)")
		}
		n.prefix = append([]byte(nil), img[off:off+plen]...)
		off += plen
		n.used += compFixed + plen
	}
	count := int(binary.LittleEndian.Uint16(img[off:]))
	off += 2
	n.entries, n.seps, n.children = nil, nil, nil
	if n.leaf {
		n.entries = make([]Entry, 0, count)
		for i := 0; i < count; i++ {
			if off+2 > len(img) {
				return fmt.Errorf("btree: corrupt leaf (entry %d)", i)
			}
			kl := int(binary.LittleEndian.Uint16(img[off:]))
			off += 2
			if off+kl+11 > len(img) {
				return fmt.Errorf("btree: corrupt leaf (entry %d key)", i)
			}
			key := make([]byte, 0, len(n.prefix)+kl)
			key = append(append(key, n.prefix...), img[off:off+kl]...)
			off += kl
			var rid types.RID
			rid, off = getRID(img, off)
			pseudo := img[off] == 1
			off++
			n.entries = append(n.entries, Entry{Key: key, RID: rid, Pseudo: pseudo})
			n.used += n.entryRecBytes(key)
		}
		return nil
	}
	n.children = make([]types.PageNum, 0, count+1)
	for i := 0; i <= count; i++ {
		if off+4 > len(img) {
			return fmt.Errorf("btree: corrupt internal (child %d)", i)
		}
		n.children = append(n.children, types.PageNum(binary.LittleEndian.Uint32(img[off:])))
		off += 4
		n.used += 4
	}
	n.seps = make([]sep, 0, count)
	for i := 0; i < count; i++ {
		if off+2 > len(img) {
			return fmt.Errorf("btree: corrupt internal (sep %d)", i)
		}
		kl := int(binary.LittleEndian.Uint16(img[off:]))
		off += 2
		if off+kl+10 > len(img) {
			return fmt.Errorf("btree: corrupt internal (sep %d key)", i)
		}
		key := make([]byte, 0, len(n.prefix)+kl)
		key = append(append(key, n.prefix...), img[off:off+kl]...)
		off += kl
		var rid types.RID
		rid, off = getRID(img, off)
		n.seps = append(n.seps, sep{key: key, rid: rid})
		n.used += n.sepRecBytes(key)
	}
	return nil
}

func putRID(img []byte, off int, r types.RID) int {
	binary.LittleEndian.PutUint32(img[off:], uint32(r.PageID.File))
	binary.LittleEndian.PutUint32(img[off+4:], uint32(r.PageID.Page))
	binary.LittleEndian.PutUint16(img[off+8:], uint16(r.Slot))
	return off + 10
}

func getRID(img []byte, off int) (types.RID, int) {
	r := types.RID{
		PageID: types.PageID{
			File: types.FileID(binary.LittleEndian.Uint32(img[off:])),
			Page: types.PageNum(binary.LittleEndian.Uint32(img[off+4:])),
		},
		Slot: types.SlotNum(binary.LittleEndian.Uint16(img[off+8:])),
	}
	return r, off + 10
}
