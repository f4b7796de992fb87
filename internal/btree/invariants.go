package btree

import (
	"bytes"
	"fmt"

	"onlineindex/internal/types"
)

// CheckInvariants validates the whole tree structure and returns the first
// violation found:
//
//   - every node's entries/separators are strictly sorted by (key, RID);
//   - child subtrees respect their separator bounds;
//   - all leaves are at the same depth;
//   - the leaf sibling chain visits exactly the tree's leaves, left to
//     right;
//   - each node's byte accounting matches recomputation;
//   - on a unique tree, no key value has more than one live (non-pseudo)
//     entry — duplicates may coexist only while the extra entries carry the
//     pseudo-delete flag (§2.2.2).
//
// It is shared by the unit tests and the crash-sweep oracle, which runs it
// against every tree that survives a simulated failure plus recovery.
func CheckInvariants(tr *Tree) error {
	var leavesByTree []types.PageNum
	var prevLive []byte // last live key seen in leaf order, for uniqueness
	havePrevLive := false

	var walk func(pg types.PageNum, lo, hi *sep, depth int) (int, error)
	walk = func(pg types.PageNum, lo, hi *sep, depth int) (int, error) {
		f, err := tr.pool.Fetch(tr.pid(pg))
		if err != nil {
			return 0, fmt.Errorf("btree: fetch page %d: %w", pg, err)
		}
		defer tr.pool.Unpin(f)
		n, ok := f.Page().(*Node)
		if !ok {
			return 0, fmt.Errorf("btree: page %d is not an index node", pg)
		}

		within := func(key []byte, rid types.RID, what string) error {
			if lo != nil && CompareEntry(key, rid, lo.key, lo.rid) < 0 {
				return fmt.Errorf("btree: page %d: %s <%x,%v> below low bound <%x>", pg, what, key, rid, lo.key)
			}
			if hi != nil && CompareEntry(key, rid, hi.key, hi.rid) >= 0 {
				return fmt.Errorf("btree: page %d: %s <%x,%v> not below high bound <%x>", pg, what, key, rid, hi.key)
			}
			return nil
		}

		// The stored prefix must actually prefix every key; it is enough to
		// check the extremes, keys being sorted.
		check := func(key []byte, what string, i int) error {
			if !bytes.HasPrefix(key, n.prefix) {
				return fmt.Errorf("btree: page %d: %s %d lacks page prefix %x", pg, what, i, n.prefix)
			}
			return nil
		}
		if n.leaf && len(n.entries) > 0 {
			if err := check(n.entries[0].Key, "entry", 0); err != nil {
				return 0, err
			}
			if err := check(n.entries[len(n.entries)-1].Key, "entry", len(n.entries)-1); err != nil {
				return 0, err
			}
		}
		if !n.leaf && len(n.seps) > 0 {
			if err := check(n.seps[0].key, "sep", 0); err != nil {
				return 0, err
			}
			if err := check(n.seps[len(n.seps)-1].key, "sep", len(n.seps)-1); err != nil {
				return 0, err
			}
		}

		if n.leaf {
			for i, e := range n.entries {
				if err := within(e.Key, e.RID, "entry"); err != nil {
					return 0, err
				}
				if i > 0 {
					p := n.entries[i-1]
					if CompareEntry(p.Key, p.RID, e.Key, e.RID) >= 0 {
						return 0, fmt.Errorf("btree: page %d: entries %d,%d out of order", pg, i-1, i)
					}
				}
				if !e.Pseudo {
					if havePrevLive && tr.unique && bytes.Equal(prevLive, e.Key) {
						return 0, fmt.Errorf("btree: page %d: unique tree holds two live entries for key %x", pg, e.Key)
					}
					prevLive = append(prevLive[:0], e.Key...)
					havePrevLive = true
				}
			}
			if used := n.computeUsed(); used != n.used {
				return 0, fmt.Errorf("btree: page %d: used=%d, recomputed %d", pg, n.used, used)
			}
			leavesByTree = append(leavesByTree, pg)
			return 1, nil
		}

		if len(n.children) != len(n.seps)+1 {
			return 0, fmt.Errorf("btree: page %d: %d children, %d seps", pg, len(n.children), len(n.seps))
		}
		for i, s := range n.seps {
			if err := within(s.key, s.rid, "sep"); err != nil {
				return 0, err
			}
			if i > 0 {
				p := n.seps[i-1]
				if CompareEntry(p.key, p.rid, s.key, s.rid) >= 0 {
					return 0, fmt.Errorf("btree: page %d: seps %d,%d out of order", pg, i-1, i)
				}
			}
		}
		if used := n.computeUsed(); used != n.used {
			return 0, fmt.Errorf("btree: page %d: used=%d, recomputed %d", pg, n.used, used)
		}
		depth0 := -1
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.seps[i-1]
			}
			if i < len(n.seps) {
				chi = &n.seps[i]
			}
			d, err := walk(c, clo, chi, depth+1)
			if err != nil {
				return 0, err
			}
			if depth0 == -1 {
				depth0 = d
			} else if d != depth0 {
				return 0, fmt.Errorf("btree: page %d: uneven leaf depth under children", pg)
			}
		}
		return depth0 + 1, nil
	}
	if _, err := walk(RootPage, nil, nil, 0); err != nil {
		return err
	}

	chain, err := tr.LeafPages()
	if err != nil {
		return fmt.Errorf("btree: leaf chain: %w", err)
	}
	if len(chain) != len(leavesByTree) {
		return fmt.Errorf("btree: leaf chain has %d pages, tree walk found %d", len(chain), len(leavesByTree))
	}
	for i := range chain {
		if chain[i] != leavesByTree[i] {
			return fmt.Errorf("btree: leaf chain[%d]=%d, tree order %d", i, chain[i], leavesByTree[i])
		}
	}
	return nil
}
