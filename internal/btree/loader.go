package btree

import (
	"fmt"

	"onlineindex/internal/buffer"
	"onlineindex/internal/enc"
	"onlineindex/internal/latch"
	"onlineindex/internal/types"
)

// Loader builds the tree bottom-up from an ascending entry stream, the way
// the SF algorithm's index builder does (§3.2.4): no logging, no tree
// traversals, new pages allocated sequentially from the start of the file so
// "a clustered index scan would be possible". Durability comes from the
// loader's own checkpoints (flush the index file, record LoaderState), and
// restart truncates the file back to the checkpoint so "the keys higher than
// the checkpointed key disappear from the index".
//
// The loader assumes exclusive ownership of the tree: in SF, transactions
// never touch the index while IB is active (their changes go to the
// side-file). Page mutations still take the page X latch so a concurrent
// buffer-pool flush never marshals a half-mutated page.
type Loader struct {
	t          *Tree
	fillBudget int
	levels     []*buffer.Frame // pinned current (rightmost) node per level; 0 = leaf
	count      uint64
	high       Entry // the last entry added; its key buffer is reused
	finished   bool
}

// NewLoader starts a bottom-up load of an empty tree. fill is the fraction
// of each node to use before starting a new one ("the proper amount of
// desired free space ... is left in the leaf pages", §2.2.3); 0 means 0.9.
//
// Every page stores its keys truncated against a per-page common prefix,
// which widens fanout (the sorted stream gives adjacent keys long shared
// prefixes): the merge's prefix-delta stream is re-delta'd at page
// granularity as it loads.
func (t *Tree) NewLoader(fill float64) *Loader {
	if fill <= 0 || fill > 1 {
		fill = 0.9
	}
	fb := int(fill * float64(t.budget))
	if fb < 256 {
		fb = 256
	}
	return &Loader{t: t, fillBudget: fb}
}

// Count returns the number of entries added so far.
func (ld *Loader) Count() uint64 { return ld.count }

// Add appends the next entry, which must be >= every entry added before.
func (ld *Loader) Add(e Entry) error {
	if ld.finished {
		return fmt.Errorf("btree: loader already finished")
	}
	if ld.count > 0 && CompareEntry(e.Key, e.RID, ld.high.Key, ld.high.RID) < 0 {
		return fmt.Errorf("btree: loader entries out of order: %x < %x", e.Key, ld.high.Key)
	}
	if ld.count > 0 && CompareEntry(e.Key, e.RID, ld.high.Key, ld.high.RID) == 0 {
		return nil // duplicate from a restarted sort merge; idempotent
	}
	if len(ld.levels) == 0 {
		f, err := ld.t.pool.NewPage(ld.t.file, NewLeaf())
		if err != nil {
			return err
		}
		ld.t.pool.MarkDirtyUnlogged(f)
		ld.levels = append(ld.levels, f)
	}
	lf := ld.levels[0]
	if full := lf.Page().(*Node); !full.hasRoomEntry(e.Key, ld.fillBudget) {
		// Size the new leaf like the full one, so filling it allocates
		// no more entry or key storage.
		nl := NewLeaf()
		nl.reserve(len(full.entries), full.keyBytes())
		nf, err := ld.t.pool.NewPage(ld.t.file, nl)
		if err != nil {
			return err
		}
		ld.t.pool.MarkDirtyUnlogged(nf)
		mutate(ld.t.pool, lf, func(n *Node) { n.next = nf.ID.Page })
		ld.t.pool.Unpin(lf)
		ld.levels[0] = nf
		if err := ld.addSep(1, sep{key: e.Key, rid: e.RID}, nf.ID.Page, lf.ID.Page); err != nil {
			return err
		}
		lf = nf
	}
	mutate(ld.t.pool, lf, func(n *Node) { n.insertEntryAt(len(n.entries), e) })
	ld.count++
	ld.setHigh(e)
	return nil
}

// AddBatch appends a run of ascending entries. Equivalent to calling Add
// per entry, but consecutive entries that land in the same leaf are
// inserted under one latch acquisition — the hand-off granularity of the
// overlapped merge→load path makes the per-entry latch traffic visible
// otherwise.
func (ld *Loader) AddBatch(es []Entry) error {
	for i := 0; i < len(es); {
		// The batch's first entry (and each one that opens a new leaf) goes
		// through Add: leaf creation and separator propagation stay in one
		// place.
		if err := ld.Add(es[i]); err != nil {
			return err
		}
		i++
		if i >= len(es) || len(ld.levels) == 0 {
			continue
		}
		var batchErr error
		mutate(ld.t.pool, ld.levels[0], func(n *Node) {
			for i < len(es) {
				e := es[i]
				c := CompareEntry(e.Key, e.RID, ld.high.Key, ld.high.RID)
				if c < 0 {
					batchErr = fmt.Errorf("btree: loader entries out of order: %x < %x", e.Key, ld.high.Key)
					return
				}
				if c == 0 {
					i++ // duplicate from a restarted sort merge; idempotent
					continue
				}
				if !n.hasRoomEntry(e.Key, ld.fillBudget) {
					return // next Add opens a fresh leaf
				}
				n.insertEntryAt(len(n.entries), e)
				ld.count++
				ld.setHigh(e)
				i++
			}
		})
		if batchErr != nil {
			return batchErr
		}
	}
	return nil
}

// setHigh records e as the last entry added, reusing the key buffer.
func (ld *Loader) setHigh(e Entry) {
	ld.high = Entry{Key: append(ld.high.Key[:0], e.Key...), RID: e.RID, Pseudo: e.Pseudo}
}

// addSep pushes a separator into level `level`, creating the level (with
// left as its first child) if it does not exist yet.
func (ld *Loader) addSep(level int, s sep, right, left types.PageNum) error {
	if level == len(ld.levels) {
		f, err := ld.t.pool.NewPage(ld.t.file, NewInternal([]types.PageNum{left}, nil))
		if err != nil {
			return err
		}
		ld.t.pool.MarkDirtyUnlogged(f)
		ld.levels = append(ld.levels, f)
	}
	f := ld.levels[level]
	node := f.Page().(*Node)
	if !node.hasRoomSep(s.key, ld.fillBudget) {
		nf, err := ld.t.pool.NewPage(ld.t.file, NewInternal([]types.PageNum{right}, nil))
		if err != nil {
			return err
		}
		// The separator goes up a level, not into nf: if no later separator
		// lands at this level, nf's single-child content would otherwise
		// never be marked dirty and a clean eviction would lose it.
		ld.t.pool.MarkDirtyUnlogged(nf)
		ld.t.pool.Unpin(f)
		ld.levels[level] = nf
		return ld.addSep(level+1, s, nf.ID.Page, f.ID.Page)
	}
	mutate(ld.t.pool, f, func(n *Node) {
		n.insertSepAt(len(n.seps), s, right)
	})
	return nil
}

// mutate applies fn to the frame's node under its X latch and marks it dirty
// without logging.
func mutate(pool *buffer.Pool, f *buffer.Frame, fn func(n *Node)) {
	f.Latch.Acquire(latch.X)
	fn(f.Page().(*Node))
	pool.MarkDirtyUnlogged(f)
	f.Latch.Release(latch.X)
}

// Finish completes the load: the top node's content is copied into the
// anchored root page. The loader's frames are unpinned. The caller logs the
// index state transition and flushes the file.
func (ld *Loader) Finish() error {
	if ld.finished {
		return nil
	}
	ld.finished = true
	defer func() {
		for _, f := range ld.levels {
			ld.t.pool.Unpin(f)
		}
		ld.levels = nil
	}()
	if len(ld.levels) == 0 {
		return nil // empty table: root stays an empty leaf
	}
	top := ld.levels[len(ld.levels)-1].Page().(*Node)
	rootF, err := ld.t.pool.Fetch(ld.t.pid(RootPage))
	if err != nil {
		return err
	}
	defer ld.t.pool.Unpin(rootF)
	rootF.Latch.Acquire(latch.X)
	root := rootF.Page().(*Node)
	hdr := root.Header
	w := enc.NewWriter()
	top.encodeContent(w)
	clone, err := decodeContent(enc.NewReader(w.Bytes()))
	if err != nil {
		rootF.Latch.Release(latch.X)
		return err
	}
	*root = *clone
	root.Header = hdr
	ld.t.pool.MarkDirtyUnlogged(rootF)
	rootF.Latch.Release(latch.X)
	return nil
}

// LoaderState is a restartable-build checkpoint (§3.2.4): "periodically, IB
// can checkpoint the highest key inserted into the index and the page-IDs of
// the rightmost branch of the index. This checkpointing to stable storage is
// done after all the dirty pages of the index have been written to disk."
type LoaderState struct {
	Count      uint64
	High       Entry
	PageCount  types.PageNum
	LevelPages []types.PageNum
}

// Encode serializes the state for the IB checkpoint record.
func (s *LoaderState) Encode() []byte {
	w := enc.NewWriter().U64(s.Count).Bytes32(s.High.Key).RID(s.High.RID).Bool(s.High.Pseudo).
		U32(uint32(s.PageCount)).U32(uint32(len(s.LevelPages)))
	for _, p := range s.LevelPages {
		w.U32(uint32(p))
	}
	return w.Bytes()
}

// DecodeLoaderState parses a LoaderState.
func DecodeLoaderState(b []byte) (LoaderState, error) {
	r := enc.NewReader(b)
	s := LoaderState{
		Count:     r.U64(),
		High:      Entry{Key: r.Bytes32(), RID: r.RID(), Pseudo: r.Bool()},
		PageCount: types.PageNum(r.U32()),
	}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		s.LevelPages = append(s.LevelPages, types.PageNum(r.U32()))
	}
	return s, r.Err()
}

// Checkpoint flushes the index file and returns the restartable state.
func (ld *Loader) Checkpoint() (LoaderState, error) {
	if err := ld.t.pool.FlushFile(ld.t.file); err != nil {
		return LoaderState{}, err
	}
	pc, err := ld.t.pool.PageCount(ld.t.file)
	if err != nil {
		return LoaderState{}, err
	}
	high := ld.high
	high.Key = append([]byte(nil), high.Key...) // ld.high's buffer is reused
	st := LoaderState{Count: ld.count, High: high, PageCount: pc}
	for _, f := range ld.levels {
		st.LevelPages = append(st.LevelPages, f.ID.Page)
	}
	return st, nil
}

// RestartLoader resumes a bottom-up load from a checkpoint after a crash:
// pages allocated after the checkpoint are deallocated (file truncation) and
// entries above the checkpointed highest key are stripped from the surviving
// rightmost branch, so the tree is exactly as it was at Checkpoint time.
// Feeding the sorted stream from just after State.High continues the build.
// A checkpointed branch page in the retired full-key format fails the fetch
// with ErrOldFormat.
func (t *Tree) RestartLoader(st LoaderState, fill float64) (*Loader, error) {
	if err := t.pool.TruncateFile(t.file, st.PageCount); err != nil {
		return nil, err
	}
	ld := t.NewLoader(fill)
	ld.count = st.Count
	ld.setHigh(st.High)
	for level, pg := range st.LevelPages {
		f, err := t.pool.Fetch(t.pid(pg))
		if err != nil {
			return nil, err
		}
		f.Latch.Acquire(latch.X)
		n, ok := f.Page().(*Node)
		if !ok {
			f.Latch.Release(latch.X)
			t.pool.Unpin(f)
			return nil, fmt.Errorf("btree: restart: page %d is not a node", pg)
		}
		if level == 0 {
			for len(n.entries) > 0 {
				last := n.entries[len(n.entries)-1]
				if CompareEntry(last.Key, last.RID, st.High.Key, st.High.RID) <= 0 {
					break
				}
				n.removeEntryAt(len(n.entries) - 1)
			}
			n.next = NoPage
		} else {
			for len(n.seps) > 0 {
				last := n.seps[len(n.seps)-1]
				if CompareEntry(last.key, last.rid, st.High.Key, st.High.RID) <= 0 &&
					n.children[len(n.children)-1] < st.PageCount {
					break
				}
				n.seps = n.seps[:len(n.seps)-1]
				n.children = n.children[:len(n.children)-1]
			}
			if n.children[len(n.children)-1] >= st.PageCount {
				f.Latch.Release(latch.X)
				t.pool.Unpin(f)
				return nil, fmt.Errorf("btree: restart: level %d still references truncated page", level)
			}
		}
		n.resetPrefix() // rebuilds prefix and used
		t.pool.MarkDirtyUnlogged(f)
		f.Latch.Release(latch.X)
		ld.levels = append(ld.levels, f)
	}
	return ld, nil
}
