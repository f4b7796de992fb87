// Package extsort implements the paper's restartable external sort (§5): a
// tournament-tree sort whose sort phase and merge phase both checkpoint
// enough state to resume after a system failure without re-reading the
// already-sorted prefix of the input.
//
// The sort phase uses replacement selection over a tournament (loser) tree,
// producing sorted runs on the VFS; a checkpoint drains the tree, forces the
// run files, and records the run metadata plus the caller's scan position
// (§5.1). The merge phase is an N-way tournament merge that maintains the
// paper's per-input counters: "while outputting a value from the tree, we
// increment by one the counter associated with the input stream from which
// that value came" (§5.2); checkpointing the counter vector lets restart
// reposition every input exactly.
//
// Items are opaque byte strings ordered by bytes.Compare — the
// memcmp-comparable index keys of package keyenc.
//
// Memory ownership. The sorter copies every item it accepts into a buffer
// of its own (one per tournament leaf), so Sorter.Add, Sorter.AddOwned and
// PartSorter.FeedPage keep nothing of the caller's memory once they return.
// The merge lends its items instead: the slice Merger.Next returns is valid
// only until the next call to Next on the same Merger, because each run
// reader alternates between two item buffers. A consumer that keeps an item
// past that point must copy it.
package extsort

import (
	"bytes"
	"encoding/binary"
	"math"
)

// inf marks an exhausted (+infinity) leaf in both words of its key. No valid
// leaf carries it in both: a run tag or a leaf index never reaches it.
const inf = math.MaxUint64

// node is one tournament position: the ordering key of a leaf, cached next
// to that leaf's index, so a match compares two integers and reads the
// leaves' bytes only when the integers tie. The key is
//
//	run generation: (run tag, item prefix)
//	merge:          (item prefix, leaf index)
//
// where the item prefix is the item's first 8 bytes, big-endian and
// zero-padded, and an exhausted leaf is (inf, inf). Prefix order agrees
// with bytes.Compare wherever the prefixes differ, so the only ties left
// for the bytes are equal prefixes — including a short item against its
// zero-extended self ("ab" vs "ab\x00"), which the full compare settles.
type node struct {
	hi, lo uint64
	leaf   int
}

// prefix8 returns b's first 8 bytes as a big-endian integer, zero-padded.
func prefix8(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var p [8]byte
	copy(p[:], b)
	return binary.BigEndian.Uint64(p[:])
}

// cmpTail compares two items whose 8-byte prefixes are equal.
func cmpTail(a, b []byte) int {
	if len(a) >= 8 && len(b) >= 8 {
		return bytes.Compare(a[8:], b[8:])
	}
	return bytes.Compare(a, b)
}

// loserTree is a classic tournament tree of n leaves: internal node k holds
// the leaf that *lost* the match at k, and nodes[0] holds the overall
// winner. Replacing the winner replays only its root path — O(log n)
// matches per output, each reading one node, the property that makes
// tournament sort the paper's choice for both phases.
//
// Run generation orders leaves by (tag, item): replacement selection tags
// an item for the next run when it falls below the current run's last
// output, so it loses against every current-run item. The merge orders by
// (item, leaf index), so equal items leave in run order (a stable merge,
// which side-file application relies on).
type loserTree struct {
	nodes []node   // nodes[k], k >= 1: the loser at k; nodes[0]: the winner
	keys  []node   // keys[i]: leaf i's ordering key
	items [][]byte // items[i]: leaf i's item (stale once the leaf is exhausted)
	merge bool
}

// newLoserTree returns a tree of n >= 1 leaves, all exhausted; set them and
// call build.
func newLoserTree(n int, merge bool) *loserTree {
	t := &loserTree{nodes: make([]node, n), keys: make([]node, n),
		items: make([][]byte, n), merge: merge}
	for i := range t.keys {
		t.clear(i)
	}
	return t
}

// setRun installs a run-generation leaf, copying item into the leaf's own
// buffer (which it reuses, so a warm tree allocates nothing).
func (t *loserTree) setRun(i int, tag uint64, item []byte) {
	t.items[i] = append(t.items[i][:0], item...)
	t.keys[i] = node{hi: tag, lo: prefix8(item), leaf: i}
}

// setMerge installs a merge leaf. The tree borrows item until the leaf is
// next set.
func (t *loserTree) setMerge(i int, item []byte) {
	t.items[i] = item
	t.keys[i] = node{hi: prefix8(item), lo: uint64(i), leaf: i}
}

// clear marks leaf i exhausted (+infinity).
func (t *loserTree) clear(i int) { t.keys[i] = node{hi: inf, lo: inf, leaf: i} }

// less is the match: does a beat b?
func (t *loserTree) less(a, b *node) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	if t.merge {
		// Equal prefixes (or both exhausted): the bytes, then the leaf index.
		if a.lo != inf && b.lo != inf {
			if c := cmpTail(t.items[a.leaf], t.items[b.leaf]); c != 0 {
				return c < 0
			}
		}
		return a.lo < b.lo
	}
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.hi != inf && cmpTail(t.items[a.leaf], t.items[b.leaf]) < 0
}

// build plays the initial tournament over the installed leaves.
func (t *loserTree) build() {
	for i := range t.nodes {
		t.nodes[i].leaf = -1 // empty: parks the first climber that reaches it
	}
	for i := len(t.keys) - 1; i >= 0; i-- {
		t.adjust(i)
	}
}

// adjust replays leaf i's path to the root. During build a climb parks at
// the first empty node (classic tournament construction: each internal
// node hosts exactly one loser once every leaf has been entered);
// afterwards every node is occupied, so the climb plays a match at each
// level — the loser stays, the winner continues — and installs the overall
// winner at nodes[0].
func (t *loserTree) adjust(i int) {
	w := t.keys[i]
	for k := (i + len(t.keys)) / 2; k > 0; k /= 2 {
		if t.nodes[k].leaf < 0 {
			t.nodes[k] = w
			return // parked during build; the champion is not yet known
		}
		if t.less(&t.nodes[k], &w) {
			t.nodes[k], w = w, t.nodes[k]
		}
	}
	t.nodes[0] = w
}

// winner returns the index of the winning leaf.
func (t *loserTree) winner() int { return t.nodes[0].leaf }

// winnerTag returns the winning leaf's run tag (run generation only).
func (t *loserTree) winnerTag() uint64 { return t.nodes[0].hi }

// empty reports whether every leaf is exhausted.
func (t *loserTree) empty() bool { return t.nodes[0].hi == inf && t.nodes[0].lo == inf }
