package btree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"onlineindex/internal/buffer"
	"onlineindex/internal/latch"
	"onlineindex/internal/metrics"
	"onlineindex/internal/rm"
	"onlineindex/internal/types"
	"onlineindex/internal/wal"
)

// RootPage is the fixed page number of the root: the root never moves (root
// growth copies its content into two new children), so no anchor pointer
// needs maintenance.
const RootPage types.PageNum = 0

// Stats counts tree activity for the experiment harness.
type Stats struct {
	Descents      atomic.Uint64 // full root-to-leaf traversals
	FastPathHits  atomic.Uint64 // IB inserts that reused the remembered leaf
	Splits        atomic.Uint64
	RootSplits    atomic.Uint64
	Inserts       atomic.Uint64
	Noops         atomic.Uint64 // txn inserts rejected as duplicates (IB won the race)
	Reactivates   atomic.Uint64
	PseudoDeletes atomic.Uint64
	Tombstones    atomic.Uint64 // pseudo-deleted keys inserted by deleters
	IBSkips       atomic.Uint64 // IB inserts rejected as duplicates (txn won the race)
	Removes       atomic.Uint64 // physical entry removals (GC, undo)
	ScanResumes   atomic.Uint64 // cursor refills (each is one resume descent)
	ScanLeaves    atomic.Uint64 // leaves visited by cursor refills
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Descents, FastPathHits, Splits, RootSplits, Inserts, Noops,
	Reactivates, PseudoDeletes, Tombstones, IBSkips, Removes,
	ScanResumes, ScanLeaves uint64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Descents: s.Descents.Load(), FastPathHits: s.FastPathHits.Load(),
		Splits: s.Splits.Load(), RootSplits: s.RootSplits.Load(),
		Inserts: s.Inserts.Load(), Noops: s.Noops.Load(),
		Reactivates: s.Reactivates.Load(), PseudoDeletes: s.PseudoDeletes.Load(),
		Tombstones: s.Tombstones.Load(), IBSkips: s.IBSkips.Load(),
		Removes:     s.Removes.Load(),
		ScanResumes: s.ScanResumes.Load(), ScanLeaves: s.ScanLeaves.Load(),
	}
}

// Metrics holds the tree's registry handles; the zero value disables export.
// PseudoDeleted tracks the entries currently in the pseudo-deleted state: it
// rises at pseudo-delete and tombstone-insert sites and falls when an entry
// is reactivated or physically removed. The gauge is volatile — it counts
// transitions observed by this incarnation, not the on-disk state, so it is
// meaningful only for trees opened before any pseudo entries existed (or
// after a full GC).
type Metrics struct {
	Splits        *metrics.Counter
	RootSplits    *metrics.Counter
	Inserts       *metrics.Counter
	Removes       *metrics.Counter
	PseudoDeleted *metrics.Gauge
	ScanResumes   *metrics.Counter
	ScanLeaves    *metrics.Counter
}

// MetricsFrom resolves the tree's standard instrument names on r. All trees
// attached to the same registry share the instruments (engine-wide totals).
func MetricsFrom(r *metrics.Registry) Metrics {
	return Metrics{
		Splits:        r.Counter("btree.splits"),
		RootSplits:    r.Counter("btree.root_splits"),
		Inserts:       r.Counter("btree.inserts"),
		Removes:       r.Counter("btree.removes"),
		PseudoDeleted: r.Gauge("btree.pseudo_deleted"),
		ScanResumes:   r.Counter("btree.scan_resumes"),
		ScanLeaves:    r.Counter("btree.scan_leaves"),
	}
}

// SetMetrics attaches registry handles. Call before concurrent use.
func (t *Tree) SetMetrics(m Metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.met = m
}

// Tree is one B+-tree index over an index file.
//
// The tree latch (mu) is held in share mode by every entry-level operation
// and in exclusive mode by structure modifications; page latches underneath
// serialize same-leaf access. See the package comment for the deadlock
// argument.
type Tree struct {
	pool   *buffer.Pool
	file   types.FileID
	unique bool
	budget int // max marshalled node size; page.Size normally, smaller in tests

	mu sync.RWMutex
	// uniqMu serializes unique-index inserts on this tree; see
	// tryInsertUnique for the rationale. Always acquired before mu.
	uniqMu sync.Mutex
	Stats  Stats
	met    Metrics
}

// Config tunes a Tree.
type Config struct {
	Unique bool
	// Budget caps node size in bytes; 0 means the full page. Tests use small
	// budgets to force deep trees.
	Budget int
}

// Create formats a new index file with an empty root leaf, logging the
// format under tl (redo-only: index creation is made durable by the DDL
// commit). The file must be empty.
func Create(pool *buffer.Pool, file types.FileID, cfg Config, tl rm.TxnLogger) (*Tree, error) {
	t, err := open(pool, file, cfg)
	if err != nil {
		return nil, err
	}
	n, err := pool.PageCount(file)
	if err != nil {
		return nil, err
	}
	if n != 0 {
		return nil, fmt.Errorf("btree: create on non-empty file %d (%d pages)", file, n)
	}
	f, err := pool.NewPage(file, NewLeaf())
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(f)
	pl := FormatPayload{}
	lsn, err := tl.Log(&wal.Record{
		Type: wal.TypeIdxFormat, Flags: wal.FlagRedo,
		PageID: f.ID, Payload: pl.Encode(),
	})
	if err != nil {
		return nil, err
	}
	f.MarkDirty(lsn)
	return t, nil
}

// Open returns a Tree over an existing index file.
func Open(pool *buffer.Pool, file types.FileID, cfg Config) (*Tree, error) {
	t, err := open(pool, file, cfg)
	if err != nil {
		return nil, err
	}
	n, err := pool.PageCount(file)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("btree: open of empty file %d (use Create)", file)
	}
	return t, nil
}

func open(pool *buffer.Pool, file types.FileID, cfg Config) (*Tree, error) {
	if err := pool.OpenFile(file); err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = maxBudget
	}
	if budget < 256 {
		return nil, fmt.Errorf("btree: budget %d too small", budget)
	}
	return &Tree{pool: pool, file: file, unique: cfg.Unique, budget: budget}, nil
}

// maxBudget is the default node byte budget (the page size).
const maxBudget = 8192

// FileID returns the index file ID.
func (t *Tree) FileID() types.FileID { return t.file }

// Unique reports whether the tree enforces key-value uniqueness.
func (t *Tree) Unique() bool { return t.unique }

func (t *Tree) pid(n types.PageNum) types.PageID { return types.PageID{File: t.file, Page: n} }

// fetchLatched pins page n and latches it.
func (t *Tree) fetchLatched(n types.PageNum, m latch.Mode) (*buffer.Frame, *Node, error) {
	f, err := t.pool.Fetch(t.pid(n))
	if err != nil {
		return nil, nil, err
	}
	f.Latch.Acquire(m)
	node, ok := f.Page().(*Node)
	if !ok {
		f.Latch.Release(m)
		t.pool.Unpin(f)
		return nil, nil, fmt.Errorf("btree: page %s is not a btree node", t.pid(n))
	}
	return f, node, nil
}

func (t *Tree) release(f *buffer.Frame, m latch.Mode) {
	f.Latch.Release(m)
	t.pool.Unpin(f)
}

// descend walks root-to-leaf for (key, rid) with latch crabbing, returning
// the pinned leaf frame latched in leafMode. Caller must hold t.mu (share is
// enough: node roles and key ranges only change under the exclusive tree
// latch).
func (t *Tree) descend(key []byte, rid types.RID, leafMode latch.Mode) (*buffer.Frame, *Node, error) {
	t.Stats.Descents.Add(1)
	f, n, err := t.fetchLatched(RootPage, latch.S)
	if err != nil {
		return nil, nil, err
	}
	for !n.leaf {
		child := n.children[n.searchChild(key, rid)]
		nf, nn, err := t.fetchLatched(child, latch.S)
		if err != nil {
			t.release(f, latch.S)
			return nil, nil, err
		}
		t.release(f, latch.S)
		f, n = nf, nn
	}
	if leafMode == latch.X {
		// Re-latch exclusively. The leaf's key range cannot change (that
		// would be a structure modification needing the exclusive tree
		// latch), so no revalidation is required; entry positions are
		// searched under the X latch anyway.
		f.Latch.Release(latch.S)
		f.Latch.Acquire(latch.X)
	}
	return f, n, nil
}

// SearchEntry reports whether the exact entry (key, rid) exists, and whether
// it is pseudo-deleted.
func (t *Tree) SearchEntry(key []byte, rid types.RID) (found, pseudo bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, n, err := t.descend(key, rid, latch.S)
	if err != nil {
		return false, false, err
	}
	defer t.release(f, latch.S)
	i, exact := n.searchLeaf(key, rid)
	if !exact {
		return false, false, nil
	}
	return true, n.entries[i].Pseudo, nil
}

// Lookup returns the RIDs of all non-pseudo-deleted entries whose key value
// equals key, in RID order.
func (t *Tree) Lookup(key []byte) ([]types.RID, error) {
	var rids []types.RID
	err := t.ScanRange(key, key, func(e Entry) bool {
		if !e.Pseudo {
			rids = append(rids, e.RID)
		}
		return true
	})
	return rids, err
}

// ScanRange streams every entry (including pseudo-deleted ones, which the
// callback can filter via Entry.Pseudo) with lo <= key value <= hi, in
// (key, RID) order. nil hi means "to the end"; nil lo means "from the
// start". Returning false from fn stops the scan.
func (t *Tree) ScanRange(lo, hi []byte, fn func(e Entry) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, n, err := t.descend(lo, types.RID{}, latch.S)
	if err != nil {
		return err
	}
	i, _ := n.searchLeaf(lo, types.RID{})
	for {
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if hi != nil && CompareEntry(e.Key, types.RID{}, hi, types.MaxRID) > 0 {
				t.release(f, latch.S)
				return nil
			}
			if !fn(Entry{Key: append([]byte(nil), e.Key...), RID: e.RID, Pseudo: e.Pseudo}) {
				t.release(f, latch.S)
				return nil
			}
		}
		next := n.next
		if next == NoPage {
			t.release(f, latch.S)
			return nil
		}
		nf, nn, err := t.fetchLatched(next, latch.S)
		if err != nil {
			t.release(f, latch.S)
			return err
		}
		t.release(f, latch.S)
		f, n = nf, nn
		i = 0
	}
}

// LeafPages returns the page numbers of the leaf chain in key order. The
// clustering experiments (E4) measure how physically sequential this
// sequence is.
func (t *Tree) LeafPages() ([]types.PageNum, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, n, err := t.descend(nil, types.RID{}, latch.S)
	if err != nil {
		return nil, err
	}
	var pages []types.PageNum
	for {
		pages = append(pages, f.ID.Page)
		next := n.next
		if next == NoPage {
			t.release(f, latch.S)
			return pages, nil
		}
		nf, nn, err := t.fetchLatched(next, latch.S)
		if err != nil {
			t.release(f, latch.S)
			return nil, err
		}
		t.release(f, latch.S)
		f, n = nf, nn
	}
}

// Height returns the number of levels (1 = root is a leaf).
func (t *Tree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := 1
	pg := RootPage
	for {
		f, n, err := t.fetchLatched(pg, latch.S)
		if err != nil {
			return 0, err
		}
		leaf := n.leaf
		var child types.PageNum
		if !leaf {
			child = n.children[0]
		}
		t.release(f, latch.S)
		if leaf {
			return h, nil
		}
		h++
		pg = child
	}
}

// CountEntries returns the number of live and pseudo-deleted entries.
func (t *Tree) CountEntries() (live, pseudo int, err error) {
	err = t.ScanRange(nil, nil, func(e Entry) bool {
		if e.Pseudo {
			pseudo++
		} else {
			live++
		}
		return true
	})
	return live, pseudo, err
}

// PageCount returns the number of pages in the index file.
func (t *Tree) PageCount() (types.PageNum, error) { return t.pool.PageCount(t.file) }
