package extsort

import (
	"onlineindex/internal/enc"
	"onlineindex/internal/vfs"
)

// Merger is the restartable merge phase: an N-way tournament merge in which
// "a particular leaf node of the tree is always fed from the same input
// stream", so the vector of per-stream counters identifies exactly how to
// repopulate the tree after a failure (§5.2).
//
// The merger is an iterator rather than a file writer because the paper
// pipelines the final merge pass into the index builder's key-insert logic
// ("the final merge phase of sort can be performed as keys are being
// inserted into the index", §2.2.2). Callers that do write a file (or an
// index) checkpoint Counters() together with their own output position.
type Merger struct {
	runs     []RunMeta
	readers  []*runReader
	counters []uint64
	tree     *loserTree
	started  bool
}

// MergeState is a merge-phase checkpoint: the input streams and the counter
// vector ("we record the contents of the vector of counters and the
// descriptions (file names, etc.) of the input streams", §5.2). The caller
// embeds its own output position next to it.
type MergeState struct {
	Runs     []RunMeta
	Counters []uint64
}

// mergeStateMagic tags a MergeState over prefix-delta runs; like
// sortStateMagic, a state without it is refused with ErrOldFormat.
const mergeStateMagic = 0xffff_fffc

// Encode serializes the state.
func (st *MergeState) Encode() []byte {
	w := enc.NewWriter().U32(mergeStateMagic)
	w.U32(uint32(len(st.Runs)))
	for _, r := range st.Runs {
		r.encode(w)
	}
	w.U32(uint32(len(st.Counters)))
	for _, c := range st.Counters {
		w.U64(c)
	}
	return w.Bytes()
}

// DecodeMergeState parses a MergeState.
func DecodeMergeState(b []byte) (MergeState, error) {
	r := enc.NewReader(b)
	if r.U32() != mergeStateMagic && r.Err() == nil {
		return MergeState{}, ErrOldFormat
	}
	st := MergeState{}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		st.Runs = append(st.Runs, decodeRunMeta(r))
	}
	m := int(r.U32())
	for i := 0; i < m; i++ {
		st.Counters = append(st.Counters, r.U64())
	}
	return st, r.Err()
}

// NewMerger opens a merge over the runs. counters may be nil (merge from the
// start) or a checkpointed vector: each input is then positioned "so that
// the next key to be input into the merge from that file would be the key at
// position k" (§5.2).
func NewMerger(fs vfs.FS, runs []RunMeta, counters []uint64) (*Merger, error) {
	m := &Merger{runs: runs, counters: make([]uint64, len(runs))}
	if counters != nil {
		copy(m.counters, counters)
	}
	for i, r := range runs {
		rd, err := openRun(fs, r)
		if err != nil {
			m.Close()
			return nil, err
		}
		if err := rd.skip(m.counters[i]); err != nil {
			rd.close()
			m.Close()
			return nil, err
		}
		m.readers = append(m.readers, rd)
	}
	return m, nil
}

// ResumeMerger reopens a merge from a checkpoint.
func ResumeMerger(fs vfs.FS, st MergeState) (*Merger, error) {
	return NewMerger(fs, st.Runs, st.Counters)
}

func (m *Merger) start() error {
	m.tree = newLoserTree(max(1, len(m.readers)), true)
	for i, rd := range m.readers {
		item, ok, err := rd.next()
		if err != nil {
			return err
		}
		if ok {
			m.tree.setMerge(i, item)
		}
	}
	m.tree.build()
	m.started = true
	return nil
}

// Next returns the next item in merged order along with the index of the
// run it came from; ok=false at the end. The item is borrowed: it stays
// valid until the next call to Next, and a caller that keeps it longer
// must copy it.
func (m *Merger) Next() ([]byte, int, bool, error) {
	if !m.started {
		if err := m.start(); err != nil {
			return nil, 0, false, err
		}
	}
	if m.tree.empty() {
		return nil, 0, false, nil
	}
	w := m.tree.winner()
	out := m.tree.items[w]
	m.counters[w]++
	// The reader fills its other buffer, so out survives the refill.
	item, ok, err := m.readers[w].next()
	if err != nil {
		return nil, 0, false, err
	}
	if ok {
		m.tree.setMerge(w, item)
	} else {
		m.tree.clear(w)
	}
	m.tree.adjust(w)
	return out, w, true, nil
}

// Counters returns a copy of the per-stream counter vector for
// checkpointing.
func (m *Merger) Counters() []uint64 {
	return append([]uint64(nil), m.counters...)
}

// State returns a full merge checkpoint.
func (m *Merger) State() MergeState {
	return MergeState{Runs: m.runs, Counters: m.Counters()}
}

// Close releases the input files.
func (m *Merger) Close() {
	for _, rd := range m.readers {
		if rd != nil {
			rd.close()
		}
	}
	m.readers = nil
}
