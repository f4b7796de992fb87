package extsort

import (
	"fmt"
	"sync"

	"onlineindex/internal/enc"
	"onlineindex/internal/vfs"
)

// PartSorter parallelizes run generation across independent
// replacement-selection Sorters. The caller feeds whole pages round-robin
// (FeedPage); each partition emits its own run stream under its own file
// prefix (<prefix>-pN-run-...), so run numbering is disjoint by
// construction and the merge phase simply sees a wider set of input
// streams. The paper's restart machinery carries over with no new
// invariants: the merge already treats every run as an independent stream
// with its own counter (§5.2), and each partition checkpoints exactly the
// way the single sorter does (§5.1) — the partitioned checkpoint is the
// vector of the per-partition states.
//
// With parts <= 1 the PartSorter is a transparent wrapper over one Sorter
// with the original prefix and the original checkpoint encoding, and it
// spawns no goroutines — the I/O sequence is op-for-op identical to the
// pre-partitioning implementation, which is what keeps the serial crash
// sweep's fault-point schedule valid.
//
// With parts > 1 and concurrent=true, one goroutine per partition drains a
// small bounded channel of page batches, so the serial stage-3 sorter feed
// of the scan pipeline degenerates into cheap channel sends and the
// tournament + run I/O work fans out. concurrent=false keeps the same
// partitioned run layout and checkpoint shape but feeds the partitions
// inline on the caller's goroutine — the deterministic single-goroutine
// I/O order the fault-injection harness needs (same trade as
// Options.SerialFinish).
type PartSorter struct {
	prefix string
	parts  []*Sorter
	conc   bool

	pages uint64 // pages fed so far; partition = pages % len(parts)
	feed  []chan partMsg
	wg    sync.WaitGroup

	errMu   sync.Mutex
	err     error
	stopped bool
}

// partMsg is one unit of partition-worker work: a page's items, or a flush
// barrier (items nil) acknowledged once everything queued before it has
// been consumed — channel FIFO order is the quiescing mechanism.
type partMsg struct {
	items [][]byte
	flush chan struct{}
}

// feedDepth bounds each partition's queued page batches; memory stays
// O(parts * feedDepth) pages beyond the watermark.
const feedDepth = 4

// partPrefix names partition i's run files. Partition prefixes never
// collide with the serial layout: "<prefix>-pN-run-" does not match the
// serial sweep pattern "<prefix>-run-" and vice versa.
func partPrefix(prefix string, i int) string { return fmt.Sprintf("%s-p%d", prefix, i) }

// NewPartSorter starts a partitioned sort of `parts` partitions, each a
// replacement-selection Sorter with the given tree capacity (capacity is
// per partition). parts <= 1 selects the serial single-sorter layout.
func NewPartSorter(fs vfs.FS, prefix string, capacity, parts int, concurrent bool) *PartSorter {
	if parts < 1 {
		parts = 1
	}
	p := &PartSorter{prefix: prefix, conc: concurrent && parts > 1}
	if parts == 1 {
		p.parts = []*Sorter{NewSorter(fs, prefix, capacity)}
		return p
	}
	for i := 0; i < parts; i++ {
		p.parts = append(p.parts, NewSorter(fs, partPrefix(prefix, i), capacity))
	}
	p.start()
	return p
}

// start spawns the partition workers (concurrent mode only).
func (p *PartSorter) start() {
	if !p.conc {
		return
	}
	p.feed = make([]chan partMsg, len(p.parts))
	for i := range p.parts {
		p.feed[i] = make(chan partMsg, feedDepth)
		p.wg.Add(1)
		go p.worker(i)
	}
}

func (p *PartSorter) worker(i int) {
	defer p.wg.Done()
	s := p.parts[i]
	for msg := range p.feed[i] {
		if msg.flush != nil {
			close(msg.flush)
			continue
		}
		if p.getErr() != nil {
			continue // drain without working; the feed is unwinding
		}
		for _, it := range msg.items {
			if err := s.Add(it); err != nil {
				p.setErr(err)
				break
			}
		}
	}
}

func (p *PartSorter) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *PartSorter) getErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// Partitions returns the partition count.
func (p *PartSorter) Partitions() int { return len(p.parts) }

// SetMetrics attaches registry handles to every partition (the handles are
// atomic, so partitions share them).
func (p *PartSorter) SetMetrics(m Metrics) {
	for _, s := range p.parts {
		s.SetMetrics(m)
	}
}

// Count returns the total number of items accepted across partitions.
// Callable only at quiescent points (between FeedPage and after
// Checkpoint/Finish) in concurrent mode.
func (p *PartSorter) Count() uint64 {
	var n uint64
	for _, s := range p.parts {
		n += s.Count()
	}
	return n
}

// FeedPage pushes one visited page's items into the sort, round-robin by
// page. Nothing keeps the caller's memory after it returns: inline mode
// copies each item into a tournament leaf, concurrent mode copies the page
// into an arena of its own that travels to the partition worker.
// Pages must arrive in scan order — the round-robin assignment is then a
// pure function of the page ordinal, so a resumed scan re-feeds
// deterministically (assignment across incarnations may differ, which is
// fine: every checkpoint drains every partition, so no in-flight item's
// placement ever becomes durable state).
func (p *PartSorter) FeedPage(items [][]byte) error {
	i := int(p.pages % uint64(len(p.parts)))
	p.pages++
	if !p.conc {
		s := p.parts[i]
		for _, it := range items {
			if err := s.Add(it); err != nil {
				return err
			}
		}
		return nil
	}
	if err := p.getErr(); err != nil {
		return err
	}
	if p.stopped {
		return fmt.Errorf("extsort: FeedPage after Close")
	}
	p.feed[i] <- partMsg{items: copyPage(items)}
	return nil
}

// copyPage copies a page's items into one arena: two allocations per page
// however many items it holds.
func copyPage(items [][]byte) [][]byte {
	n := 0
	for _, it := range items {
		n += len(it)
	}
	arena := make([]byte, 0, n)
	out := make([][]byte, len(items))
	for j, it := range items {
		start := len(arena)
		arena = append(arena, it...)
		out[j] = arena[start:len(arena):len(arena)]
	}
	return out
}

// quiesce waits until every partition worker has consumed everything fed
// so far. No-op in inline mode.
func (p *PartSorter) quiesce() {
	if !p.conc || p.stopped {
		return
	}
	for _, ch := range p.feed {
		done := make(chan struct{})
		ch <- partMsg{flush: done}
		<-done
	}
}

// Checkpoint quiesces the feed, drains every partition's tournament and
// forces its run files, and returns the vector of per-partition states
// plus the caller's scan position — the §5.1 checkpoint, one per stream
// set. The scan position is recorded once: all partitions are drained at
// the same watermark, so a single input cursor covers them all.
func (p *PartSorter) Checkpoint(scanPos []byte) (PartSortState, error) {
	p.quiesce()
	if err := p.getErr(); err != nil {
		return PartSortState{}, err
	}
	st := PartSortState{Prefix: p.prefix, ScanPos: append([]byte(nil), scanPos...)}
	for _, s := range p.parts {
		ps, err := s.Checkpoint(nil)
		if err != nil {
			return PartSortState{}, err
		}
		st.Parts = append(st.Parts, ps)
	}
	return st, nil
}

// Finish stops the feed workers, drains and closes every partition, and
// returns the concatenated run list (partition 0's runs first — a
// deterministic order the merge counters index into).
func (p *PartSorter) Finish() ([]RunMeta, error) {
	p.Close()
	if err := p.getErr(); err != nil {
		return nil, err
	}
	var runs []RunMeta
	for _, s := range p.parts {
		rs, err := s.Finish()
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	return runs, nil
}

// Close stops the partition workers without finishing the sort. Idempotent;
// safe (and necessary) on error paths so abandoned builds leak no
// goroutines. Subsequent FeedPage calls fail.
func (p *PartSorter) Close() {
	if p.stopped {
		return
	}
	p.stopped = true
	if p.conc {
		for _, ch := range p.feed {
			close(ch)
		}
		p.wg.Wait()
	}
}

// PartSortState is the partitioned sort-phase checkpoint: the per-partition
// SortStates plus the single shared scan position. For one partition it
// encodes exactly as the legacy SortState (byte-for-byte), so serial
// checkpoints are indistinguishable from the pre-partitioning format and
// either decoder accepts them.
type PartSortState struct {
	Prefix  string
	Parts   []SortState
	ScanPos []byte
}

// partStateMagic marks the partitioned encoding. The legacy SortState
// encoding begins with its run count, which is far below this sentinel.
const partStateMagic = 0xffff_fffe

// Encode serializes the state. A single-partition state uses the legacy
// SortState wire format.
func (st *PartSortState) Encode() []byte {
	if len(st.Parts) == 1 {
		legacy := st.Parts[0]
		legacy.ScanPos = st.ScanPos
		return legacy.Encode()
	}
	w := enc.NewWriter().U32(partStateMagic).String32(st.Prefix).U32(uint32(len(st.Parts)))
	for i := range st.Parts {
		w.Bytes32(st.Parts[i].Encode())
	}
	w.Bytes32(st.ScanPos)
	return w.Bytes()
}

// DecodePartSortState parses either encoding: the partitioned format, or a
// legacy single-sorter SortState (yielding a one-partition state whose
// prefix is derived from its run names, exactly as ResumeSorter does).
func DecodePartSortState(b []byte) (PartSortState, error) {
	r := enc.NewReader(b)
	if r.U32() != partStateMagic {
		legacy, err := DecodeSortState(b)
		if err != nil {
			return PartSortState{}, err
		}
		st := PartSortState{Prefix: runPrefix(legacy), ScanPos: legacy.ScanPos}
		legacy.ScanPos = nil
		st.Parts = []SortState{legacy}
		return st, nil
	}
	st := PartSortState{Prefix: r.String32()}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		ps, err := DecodeSortState(r.Bytes32())
		if err != nil {
			return PartSortState{}, err
		}
		st.Parts = append(st.Parts, ps)
	}
	st.ScanPos = r.Bytes32()
	if err := r.Err(); err != nil {
		return PartSortState{}, err
	}
	return st, nil
}

// ResumePartSorter rebuilds a partitioned sorter from a checkpoint after a
// crash: each partition resumes exactly like the single sorter (discard
// post-checkpoint runs, truncate and reopen the last run, restart the
// tournament empty). The partition count comes from the durable state, not
// the caller's options — the runs on disk decide. Returns the sorter and
// the checkpointed scan position; the caller re-feeds pages from there.
func ResumePartSorter(fs vfs.FS, st PartSortState, capacity int, concurrent bool) (*PartSorter, []byte, error) {
	p := &PartSorter{prefix: st.Prefix, conc: concurrent && len(st.Parts) > 1}
	if len(st.Parts) <= 1 {
		var legacy SortState
		if len(st.Parts) == 1 {
			legacy = st.Parts[0]
		}
		legacy.ScanPos = st.ScanPos
		s, scanPos, err := ResumeSorterWithCapacity(fs, legacy, capacity)
		if err != nil {
			return nil, nil, err
		}
		p.conc = false
		p.parts = []*Sorter{s}
		return p, scanPos, nil
	}
	for i, ps := range st.Parts {
		s := NewSorter(fs, partPrefix(st.Prefix, i), capacity)
		s2, _, err := resumeSorter(fs, s, ps)
		if err != nil {
			return nil, nil, err
		}
		p.parts = append(p.parts, s2)
	}
	p.start()
	return p, st.ScanPos, nil
}
