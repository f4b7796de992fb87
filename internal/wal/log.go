package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"onlineindex/internal/metrics"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

var (
	errTruncated = errors.New("wal: truncated record")
	errBadCRC    = errors.New("wal: checksum mismatch")
)

// LogFileName and masterFileName are the fixed file names on the VFS.
const (
	LogFileName    = "wal.log"
	masterFileName = "wal.master"
)

// Log is the append-only write-ahead log.
//
// Appends use a reserve-then-copy protocol that never takes the log mutex on
// the fast path: a CAS on the active segment's reserved-offset counter claims
// an LSN range, the record bytes are copied into the claimed range with no
// lock held, and a completion watermark (the segment's done counter) publishes
// the copy. A flush never writes a hole because sealing a segment waits until
// every claimed range has published — done == reserved means each reservation
// copied exactly its own bytes, so the sealed prefix is contiguous.
//
// Forcing is group commit with a double buffer, unchanged from the original
// protocol: the first Force caller that finds no flush in flight becomes the
// leader of a flush epoch, seals the active segment (rotating in a fresh one),
// releases the mutex, and performs one WriteAt+Sync covering every record
// appended so far. Concurrent Force callers whose target the in-flight epoch
// covers park on the epoch and share the leader's outcome — one fsync durably
// commits the whole batch, and a failed Sync fails every waiter of that epoch.
// Append never waits behind an in-flight fsync.
//
// Log is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	f       vfs.File
	flushed types.LSN // all records with LSN < flushed are durable

	// seg is the active append segment: reservations CAS its state counter
	// and copy outside the mutex. Rotation (seal + replace) happens only
	// under mu.
	seg atomic.Pointer[walSeg]
	// head holds sealed-but-unflushed bytes older than the active segment:
	// [flushed+len(inflight), seg.base). Iterator rotations and failed
	// flushes park bytes here; the next flush writes head first.
	head []byte
	// inflight holds the records the current epoch's leader is writing:
	// [flushed, flushed+len(inflight)). Empty when no flush is in flight.
	inflight []byte
	// spareSeg recycles a retired segment's array so steady-state rotation
	// ping-pongs between two arrays instead of reallocating.
	spareSeg []byte
	// readBuf is ReadAt's reusable record buffer: rollback walks a
	// transaction's PrevLSN chain one ReadAt per record, so the buffer grows
	// to the largest record read and is then reused with zero steady-state
	// allocations (decodeRecord copies the payload out, so reuse is safe).
	readBuf []byte

	flushing bool        // a leader is flushing
	curEpoch *flushEpoch // epoch accepting waiters; nil unless flushing

	ctr walCounters
	met Metrics
}

// walSeg is one append segment. base and data are immutable after
// construction; state packs the reserved byte count with the seal bit, and
// done counts bytes whose copy has completed (the completion watermark:
// done == reserved means no reservation is still copying).
type walSeg struct {
	base  types.LSN // LSN of data[0]
	data  []byte    // fixed-size backing array (len == cap)
	state atomic.Int64
	done  atomic.Int64
}

// segSealed marks a segment closed to new reservations: appenders that see it
// reload the segment pointer (the rotator installs the successor under mu).
const segSealed = int64(1) << 62

// segDefaultSize is the capacity of a fresh append segment. Oversized records
// get a dedicated larger segment.
const segDefaultSize = 64 << 10

// walCounters are the log's internal statistics, atomic because Append
// updates them with no lock held.
type walCounters struct {
	records        atomic.Uint64
	bytes          atomic.Uint64
	forces         atomic.Uint64
	forceAttempts  atomic.Uint64
	forceErrors    atomic.Uint64
	reserveRetries atomic.Uint64
	byType         [numRecTypes]typeCounters
}

type typeCounters struct {
	records atomic.Uint64
	bytes   atomic.Uint64
}

// flushEpoch is one group flush: everyone whose commit the leader's single
// WriteAt+Sync covers parks on done and shares err.
type flushEpoch struct {
	done chan struct{}
	err  error
	// end is the first LSN NOT covered by this epoch.
	end     types.LSN
	waiters uint64 // batch size: leader + parked waiters
}

// Metrics holds the log's registry handles; the zero value disables export.
type Metrics struct {
	Records *metrics.Counter
	Bytes   *metrics.Counter
	// Forces counts completed (durable) flushes; ForceAttempts counts
	// initiated ones. attempts - forces - errors == in-flight right now, and
	// a growing ForceErrors is the admin-endpoint signal that fsync is
	// failing.
	Forces        *metrics.Counter
	ForceAttempts *metrics.Counter
	ForceErrors   *metrics.Counter
	// ReserveRetries counts Append reservation CAS attempts that lost the
	// race and retried — the residual contention on the lock-free path.
	ReserveRetries *metrics.Counter
	// BatchSize observes committers per group flush; WaitNs observes how
	// long a parked committer waited for its epoch's leader.
	BatchSize *metrics.Histogram
	WaitNs    *metrics.Histogram
}

// MetricsFrom resolves the log's standard instrument names on r.
func MetricsFrom(r *metrics.Registry) Metrics {
	return Metrics{
		Records:        r.Counter("wal.records"),
		Bytes:          r.Counter("wal.bytes"),
		Forces:         r.Counter("wal.forces"),
		ForceAttempts:  r.Counter("wal.force_attempts"),
		ForceErrors:    r.Counter("wal.force_errors"),
		ReserveRetries: r.Counter("wal.reserve_retries"),
		BatchSize:      r.Histogram("wal.group_commit.batch_size", metrics.ExpBounds(1, 10)),
		WaitNs:         r.Histogram("wal.group_commit.wait_ns", metrics.ExpBounds(1024, 21)),
	}
}

// SetMetrics attaches registry handles. Call before concurrent use.
func (l *Log) SetMetrics(m Metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met = m
}

// Stats aggregates log-volume counters, reported by experiment E5 (the
// paper's §2.3.1/§4 logging-overhead claims).
type Stats struct {
	Records uint64
	Bytes   uint64
	// Forces counts completed flushes, ForceAttempts initiated ones, and
	// ForceErrors flushes that failed in WriteAt or Sync (the failed bytes
	// stay buffered and a later Force retries them).
	Forces        uint64
	ForceAttempts uint64
	ForceErrors   uint64
	// ReserveRetries counts Append LSN-reservation CAS retries.
	ReserveRetries uint64
	// Per-type record counts and bytes.
	ByType [numRecTypes]TypeStats
}

// TypeStats counts records and payload bytes of one record type.
type TypeStats struct {
	Records uint64
	Bytes   uint64
}

// Delta returns s minus prev, counter-wise.
func (s Stats) Delta(prev Stats) Stats {
	d := Stats{
		Records:        s.Records - prev.Records,
		Bytes:          s.Bytes - prev.Bytes,
		Forces:         s.Forces - prev.Forces,
		ForceAttempts:  s.ForceAttempts - prev.ForceAttempts,
		ForceErrors:    s.ForceErrors - prev.ForceErrors,
		ReserveRetries: s.ReserveRetries - prev.ReserveRetries,
	}
	for i := range s.ByType {
		d.ByType[i] = TypeStats{
			Records: s.ByType[i].Records - prev.ByType[i].Records,
			Bytes:   s.ByType[i].Bytes - prev.ByType[i].Bytes,
		}
	}
	return d
}

// TypeStat returns the counters for one record type.
func (s *Stats) TypeStat(t RecType) TypeStats { return s.ByType[t] }

// Open opens (or creates) the log on fs. Existing log contents are scanned
// to find the end of the valid log; a torn record at the tail (from a crash
// during an unforced write) is discarded.
func Open(fs vfs.FS) (*Log, error) {
	var f vfs.File
	exists, err := fs.Exists(LogFileName)
	if err != nil {
		return nil, err
	}
	if exists {
		f, err = fs.Open(LogFileName)
	} else {
		f, err = fs.Create(LogFileName)
		if err == nil {
			err = f.Sync() // make the log file's existence durable immediately
		}
	}
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, flushed: 1}
	base := types.LSN(1)
	if exists {
		base, err = l.recoverTail()
		if err != nil {
			return nil, err
		}
	}
	l.seg.Store(&walSeg{base: base, data: make([]byte, segDefaultSize)})
	return l, nil
}

// recoverTail scans the durable log to find its valid end, positions flushed
// there and returns the LSN the first new record will receive.
func (l *Log) recoverTail() (types.LSN, error) {
	size, err := l.f.Size()
	if err != nil {
		return 0, err
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := l.f.ReadAt(data, 0); err != nil && err != io.EOF {
			return 0, err
		}
	}
	off := 0
	for off < len(data) {
		_, n, err := decodeRecord(data[off:])
		if err != nil {
			break // torn tail: log ends here
		}
		off += n
	}
	l.flushed = types.LSN(off) + 1
	// Drop any torn tail so future appends land on a clean boundary.
	if int64(off) != size {
		if err := l.f.Truncate(int64(off)); err != nil {
			return 0, err
		}
	}
	return l.flushed, nil
}

// Append assigns the next LSN to r, copies its encoding into the active
// segment, and returns the LSN. The record is not durable until Force reaches
// it. The fast path is lock-free: a CAS on the segment's reserved-offset
// counter claims the LSN range, the copy happens with no lock held, and the
// segment's completion watermark publishes it. Append never waits behind an
// in-flight fsync, and concurrent appenders never serialize on a mutex —
// only on the one CAS.
func (l *Log) Append(r *Record) (types.LSN, error) {
	size := r.EncodedSize()
	for {
		s := l.seg.Load()
		st := s.state.Load()
		if st&segSealed == 0 && int(st)+size <= len(s.data) {
			if !s.state.CompareAndSwap(st, st+int64(size)) {
				l.ctr.reserveRetries.Add(1)
				l.met.ReserveRetries.Inc()
				continue
			}
			off := int(st)
			r.LSN = s.base + types.LSN(off)
			// Copy outside any lock: encode appends into the claimed range
			// in place (len 0, cap exactly size, so no reallocation).
			l.mustFill(r, s.data[off:off:off+size])
			s.done.Add(int64(size))
			l.noteAppend(r, size)
			return r.LSN, nil
		}
		// Sealed (rotation in progress) or full: rotate under the mutex.
		l.rotateForAppend(size)
	}
}

// mustFill encodes r into the claimed range and asserts the encoding filled
// it exactly — a mismatch would tear the LSN address space.
func (l *Log) mustFill(r *Record, dst []byte) {
	out := r.encode(dst)
	if len(out) != cap(dst) {
		panic(fmt.Sprintf("wal: record encoded to %d bytes, reserved %d", len(out), cap(dst)))
	}
}

func (l *Log) noteAppend(r *Record, size int) {
	l.ctr.records.Add(1)
	l.ctr.bytes.Add(uint64(size))
	l.met.Records.Inc()
	l.met.Bytes.Add(uint64(size))
	if int(r.Type) < len(l.ctr.byType) {
		l.ctr.byType[r.Type].records.Add(1)
		l.ctr.byType[r.Type].bytes.Add(uint64(size))
	}
}

// rotateForAppend installs a fresh segment big enough for a size-byte record,
// sealing the current one and parking its bytes in head. A concurrent rotator
// may have done the work already; callers always re-check the active segment.
func (l *Log) rotateForAppend(size int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.seg.Load()
	st := s.state.Load()
	if st&segSealed == 0 && int(st)+size <= len(s.data) {
		return // lost the race to another rotator; segment already fits
	}
	l.retireSegLocked(s)
	if size > segDefaultSize {
		l.seg.Store(&walSeg{base: l.segEndLocked(s), data: make([]byte, size)})
	} else {
		l.seg.Store(&walSeg{base: l.segEndLocked(s), data: l.freshSegArrayLocked()})
	}
}

// retireSegLocked seals s and appends its reserved bytes to head. Called with
// l.mu held; the caller installs the successor segment.
func (l *Log) retireSegLocked(s *walSeg) {
	off := sealSeg(s)
	if off > 0 {
		l.head = append(l.head, s.data[:off]...)
	}
	if cap(s.data) == segDefaultSize {
		l.spareSeg = s.data
	}
}

// segEndLocked returns the LSN one past the last reserved byte of a sealed
// segment — the base of its successor.
func (l *Log) segEndLocked(s *walSeg) types.LSN {
	return s.base + types.LSN(s.state.Load()&^segSealed)
}

func (l *Log) freshSegArrayLocked() []byte {
	if l.spareSeg != nil {
		d := l.spareSeg
		l.spareSeg = nil
		return d
	}
	return make([]byte, segDefaultSize)
}

// sealSeg closes s to new reservations and waits for every claimed range to
// publish its copy. Returns the final reserved byte count. done == reserved
// is the no-holes watermark: every reservation added exactly its own size
// after copying, so a matching sum means the prefix is contiguous.
func sealSeg(s *walSeg) int64 {
	var off int64
	for {
		st := s.state.Load()
		if st&segSealed != 0 {
			panic("wal: segment sealed twice")
		}
		if s.state.CompareAndSwap(st, st|segSealed) {
			off = st
			break
		}
	}
	for s.done.Load() != off {
		runtime.Gosched() // a claimed copy is still in flight; it never blocks
	}
	return off
}

// sealRotateLocked seals the active segment, rotates in a fresh one, and
// returns every unflushed byte in LSN order: head (older sealed bytes) then
// the segment's reserved prefix. head is left empty; on a flush failure the
// caller parks the bytes back there. Called with l.mu held.
func (l *Log) sealRotateLocked() []byte {
	s := l.seg.Load()
	off := sealSeg(s)
	next := &walSeg{base: s.base + types.LSN(off), data: l.freshSegArrayLocked()}
	var data []byte
	if len(l.head) == 0 {
		// Common case: hand the segment's own prefix to the flusher with no
		// copy; its array is recycled when the successor retires.
		data = s.data[:off]
	} else {
		data = append(l.head, s.data[:off]...)
		if cap(s.data) == segDefaultSize && l.spareSeg == nil {
			l.spareSeg = s.data
		}
	}
	l.head = nil
	l.seg.Store(next)
	return data
}

// unflushedTail rotates the active segment into head and returns the
// buffered-but-not-yet-durable bytes starting at flushed. Test helper for
// simulating a flush that tore before its sync.
func (l *Log) unflushedTail() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.head = l.sealRotateLocked()
	return l.head
}

// nextLSNLocked returns the LSN the next appended record will receive.
// Called with l.mu held; concurrent reservations may advance it immediately.
func (l *Log) nextLSNLocked() types.LSN {
	s := l.seg.Load()
	return s.base + types.LSN(s.state.Load()&^segSealed)
}

// Force makes every record with LSN <= lsn durable before returning. Callers
// racing on the same region share one flush: see the group-commit protocol on
// Log. Passing types.LSN(^uint64(0)) forces the whole log, but prefer
// ForceAll for that.
func (l *Log) Force(lsn types.LSN) error {
	target := lsn + 1 // first LSN that need NOT be durable
	l.mu.Lock()
	defer l.mu.Unlock()
	// Clamp overflow (lsn == ^uint64(0)) and targets beyond the last
	// assigned LSN to "everything appended so far": an unassigned LSN can't
	// become durable, and NextLSN-style callers mean the current end of log.
	if next := l.nextLSNLocked(); target < lsn || target > next {
		target = next
	}
	return l.forceLocked(target)
}

// ForceAll makes every record appended so far durable. It is the one
// unambiguous "flush everything" entry point (checkpoint barriers, engine
// Close, tests) — unlike Force(NextLSN()), which leans on target clamping.
func (l *Log) ForceAll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLocked(l.nextLSNLocked())
}

// forceLocked makes every LSN < target durable. Called and returns with l.mu
// held; parks (mutex released) while waiting on an in-flight epoch.
func (l *Log) forceLocked(target types.LSN) error {
	for {
		if l.flushed >= target {
			return nil // already durable
		}
		if !l.flushing {
			// No flush in flight: this caller leads a new epoch, which
			// covers every record appended so far — including target.
			return l.leadFlush()
		}
		ep := l.curEpoch
		if target > ep.end {
			// The in-flight flush stops short of target. Wait for it to
			// retire (off-mutex), then go around: we'll lead the next
			// epoch or join one that covers us.
			l.mu.Unlock()
			<-ep.done
			l.mu.Lock()
			continue
		}
		// Covered: the epoch's range includes target.
		ep.waiters++
		l.mu.Unlock()
		start := time.Now()
		<-ep.done
		wait := time.Since(start)
		l.mu.Lock()
		l.met.WaitNs.Observe(uint64(wait))
		// The leader's outcome is the whole epoch's outcome: a failed Sync
		// fails every waiter, a successful one made target durable.
		return ep.err
	}
}

// leadFlush runs one flush epoch as its leader. Called with l.mu held and
// unflushed bytes buffered; returns with l.mu held.
func (l *Log) leadFlush() error {
	data := l.sealRotateLocked()
	base := l.flushed
	ep := &flushEpoch{done: make(chan struct{}), end: base + types.LSN(len(data)), waiters: 1}
	l.curEpoch = ep
	l.flushing = true
	l.inflight = data
	l.ctr.forceAttempts.Add(1)
	l.met.ForceAttempts.Inc()
	l.mu.Unlock()

	_, err := l.f.WriteAt(data, int64(base-1))
	if err == nil {
		err = l.f.Sync()
	}

	l.mu.Lock()
	if err == nil {
		l.flushed = ep.end
		l.ctr.forces.Add(1)
		l.met.Forces.Inc()
		l.met.BatchSize.Observe(ep.waiters)
	} else {
		// The flush failed: its records are not durable. Put them back in
		// front of head so a later Force retries them; the iterator never
		// trusts file bytes at or beyond flushed, so a half-applied WriteAt
		// can't surface. head may have gained newer sealed bytes during the
		// flush (an append-path rotation) — the failed batch is older.
		l.head = append(data, l.head...)
		l.ctr.forceErrors.Add(1)
		l.met.ForceErrors.Inc()
	}
	l.inflight = nil
	l.flushing = false
	l.curEpoch = nil
	ep.err = err
	close(ep.done)
	return err
}

// FlushedLSN returns the first LSN that is NOT yet durable: every record
// with LSN < FlushedLSN survives a crash.
func (l *Log) FlushedLSN() types.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() types.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSNLocked()
}

// Stats returns a snapshot of the log-volume counters.
func (l *Log) Stats() Stats {
	s := Stats{
		Records:        l.ctr.records.Load(),
		Bytes:          l.ctr.bytes.Load(),
		Forces:         l.ctr.forces.Load(),
		ForceAttempts:  l.ctr.forceAttempts.Load(),
		ForceErrors:    l.ctr.forceErrors.Load(),
		ReserveRetries: l.ctr.reserveRetries.Load(),
	}
	for i := range l.ctr.byType {
		s.ByType[i] = TypeStats{
			Records: l.ctr.byType[i].records.Load(),
			Bytes:   l.ctr.byType[i].bytes.Load(),
		}
	}
	return s
}

// Close closes the underlying file without forcing (a deliberate crash
// leaves unforced records volatile).
func (l *Log) Close() error { return l.f.Close() }

// TailInfo describes how much of the log file's image parses as a valid
// record sequence.
type TailInfo struct {
	Size    int64 // log file size in bytes
	Valid   int64 // length of the decodable record prefix
	Records int   // records in that prefix
	Torn    bool  // bytes after the prefix failed to decode
}

// VerifyTail parses the log file on fs exactly as the next incarnation's
// recovery would and reports where the valid prefix ends. This is the
// durability contract the fault-injection oracle checks: a crash — even one
// that tears an in-flight log write — may only ever cut whole records off
// the end. The valid prefix always lands on a record boundary, never
// mid-record, because every record is framed by its length and CRC.
//
// A missing log file yields a zero TailInfo (an empty log is trivially
// valid).
func VerifyTail(fs vfs.FS) (TailInfo, error) {
	var ti TailInfo
	exists, err := fs.Exists(LogFileName)
	if err != nil || !exists {
		return ti, err
	}
	f, err := fs.Open(LogFileName)
	if err != nil {
		return ti, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return ti, err
	}
	ti.Size = size
	// Stream the file through a sliding window instead of materializing it:
	// the window holds the unparsed remainder plus one read chunk, growing
	// only if a single record exceeds it, and records are validated in place
	// (no per-record payload copy). The crash sweep calls this once per
	// fault schedule, so the old whole-file allocation was O(schedules ×
	// log size).
	const verifyChunk = 1 << 16
	buf := make([]byte, 0, 2*verifyChunk)
	pos := 0         // parse position within buf
	next := int64(0) // next unread file offset; buf[pos:] == file[valid, next)
	for {
		n, err := validateRecord(buf[pos:])
		if err == nil {
			pos += n
			ti.Records++
			ti.Valid += int64(n)
			continue
		}
		if err == errTruncated && next < size {
			// The window may simply be short: slide the remainder to the
			// front and top up with one more chunk.
			buf = append(buf[:0], buf[pos:]...)
			pos = 0
			take := int64(verifyChunk)
			if take > size-next {
				take = size - next
			}
			if cap(buf)-len(buf) < int(take) {
				// One record is larger than the window (oversized payloads
				// get dedicated log segments): grow once and keep the array.
				grown := make([]byte, len(buf), len(buf)+int(take)+verifyChunk)
				copy(grown, buf)
				buf = grown
			}
			start := len(buf)
			buf = buf[:start+int(take)]
			if _, err := f.ReadAt(buf[start:], next); err != nil && err != io.EOF {
				return ti, err
			}
			next += take
			continue
		}
		break
	}
	ti.Torn = ti.Valid < size
	return ti, nil
}

// WriteMaster durably records the LSN of the latest checkpoint record in the
// master file, which restart recovery reads first (ARIES master record).
func WriteMaster(fs vfs.FS, lsn types.LSN) error {
	f, err := fs.Create(masterFileName)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(lsn))
	if _, err := f.WriteAt(buf[:], 0); err != nil {
		return err
	}
	return f.Sync()
}

// ReadMaster returns the checkpoint LSN recorded by WriteMaster, or NilLSN
// if no master record exists (log scanned from the beginning).
func ReadMaster(fs vfs.FS) (types.LSN, error) {
	exists, err := fs.Exists(masterFileName)
	if err != nil || !exists {
		return types.NilLSN, err
	}
	f, err := fs.Open(masterFileName)
	if err != nil {
		return types.NilLSN, err
	}
	defer f.Close()
	var buf [8]byte
	if _, err := f.ReadAt(buf[:], 0); err != nil && err != io.EOF {
		return types.NilLSN, err
	}
	return types.LSN(binary.LittleEndian.Uint64(buf[:])), nil
}

// Iterator reads log records in LSN order. It reads through the volatile
// log image, so within one incarnation it also sees unforced records; after
// a crash the file only contains what was forced.
type Iterator struct {
	data []byte
	base types.LSN // LSN of data[0]
	off  int
}

// NewIterator returns an iterator positioned at `from` (use 1 or the
// checkpoint LSN). It snapshots the current log contents: the durable file
// prefix below flushed, then any in-flight flush buffer, then the buffered
// tail. To capture a consistent tail the active segment is sealed and
// rotated (waiting out any in-flight record copies), exactly as a flush
// leader would, but the bytes stay buffered. File bytes at or beyond flushed
// are never trusted — a failed flush may have written them without making
// them durable, and the buffered copy is the authoritative one.
func (l *Log) NewIterator(from types.LSN) (*Iterator, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from == types.NilLSN {
		from = 1
	}
	size, err := l.f.Size()
	if err != nil {
		return nil, err
	}
	// Rotate the active segment into head so the snapshot below sees every
	// completed append.
	l.head = l.sealRotateLocked()
	durable := int64(l.flushed - 1)
	if durable > size {
		durable = size
	}
	data := make([]byte, durable, int(durable)+len(l.inflight)+len(l.head))
	if durable > 0 {
		if _, err := l.f.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, err
		}
	}
	data = append(data, l.inflight...)
	data = append(data, l.head...)
	if from-1 > types.LSN(len(data)) {
		return nil, fmt.Errorf("wal: iterator start %d beyond log end %d", from, len(data)+1)
	}
	return &Iterator{data: data[from-1:], base: from}, nil
}

// Next returns the next record, or ok=false at the end of the log.
func (it *Iterator) Next() (Record, bool, error) {
	if it.off >= len(it.data) {
		return Record{}, false, nil
	}
	r, n, err := decodeRecord(it.data[it.off:])
	if err != nil {
		if errors.Is(err, errTruncated) {
			return Record{}, false, nil // clean end / torn tail
		}
		return Record{}, false, err
	}
	r.LSN = it.base + types.LSN(it.off)
	it.off += n
	return r, true, nil
}

// ReadAt returns the single record stored at the given LSN. Rollback uses it
// to walk a transaction's PrevLSN chain.
//
// Unlike NewIterator it does not snapshot the log: the record is located in
// whichever region holds it — the durable file prefix (read through the
// reusable scratch buffer), the in-flight flush buffer, or the sealed head —
// so a rollback over a large log costs one bounded read per record instead
// of one whole-log copy per record.
func (l *Log) ReadAt(lsn types.LSN) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn == types.NilLSN {
		return Record{}, fmt.Errorf("wal: no record at LSN %d", lsn)
	}
	// Rotate completed appends into head so the record is addressable
	// whether it is durable, mid-flush, or only buffered — the same
	// visibility NewIterator establishes. When the active segment is empty
	// the rotation would be a no-op, so skip it: a rollback chain walked
	// after a force then costs no segment churn (and no allocation) at all.
	if s := l.seg.Load(); s.state.Load()&^segSealed != 0 {
		l.head = l.sealRotateLocked()
	}
	size, err := l.f.Size()
	if err != nil {
		return Record{}, err
	}
	durable := int64(l.flushed - 1)
	if durable > size {
		durable = size
	}
	pos := int64(lsn - 1)
	// Flushes cover whole records, so a record never straddles the
	// durable/inflight or inflight/head boundaries: exactly one region
	// holds it end to end.
	var b []byte
	switch {
	case pos < durable:
		b, err = l.readDurableLocked(pos, durable)
		if err != nil {
			return Record{}, err
		}
	case pos < durable+int64(len(l.inflight)):
		b = l.inflight[pos-durable:]
	case pos < durable+int64(len(l.inflight))+int64(len(l.head)):
		b = l.head[pos-durable-int64(len(l.inflight)):]
	default:
		return Record{}, fmt.Errorf("wal: no record at LSN %d", lsn)
	}
	r, _, err := decodeRecord(b)
	if err != nil {
		return Record{}, err
	}
	r.LSN = lsn
	return r, nil
}

// readDurableLocked returns the encoded bytes of the single record starting
// at file offset pos, reading through l.readBuf. Only bytes below durable
// are trusted from the file (a failed flush may have written further without
// making them durable); the frame length is read first, then exactly the
// record.
func (l *Log) readDurableLocked(pos, durable int64) ([]byte, error) {
	if pos+lenSize > durable {
		return nil, fmt.Errorf("wal: truncated record frame at LSN %d", pos+1)
	}
	// The header is read through l.readBuf rather than a stack array: a
	// stack buffer handed to the vfs.File interface escapes, and this path
	// must stay allocation-free in steady state.
	if cap(l.readBuf) < headerSize {
		l.readBuf = make([]byte, headerSize)
	}
	hdr := l.readBuf[:lenSize]
	if _, err := l.f.ReadAt(hdr, pos); err != nil && err != io.EOF {
		return nil, err
	}
	total := int64(binary.LittleEndian.Uint32(hdr))
	end := pos + lenSize + crcSize + total
	if total < fixedSize || end > durable {
		return nil, fmt.Errorf("wal: corrupt record frame at LSN %d", pos+1)
	}
	n := int(end - pos)
	if cap(l.readBuf) < n {
		l.readBuf = make([]byte, n)
	}
	buf := l.readBuf[:n]
	if _, err := l.f.ReadAt(buf, pos); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}
