package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"onlineindex/internal/faultfs"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

// gateFS wraps a MemFS and, once armed, blocks the wal.log file's Sync until
// released. It lets the tests park a flush leader inside its fsync
// deterministically.
type gateFS struct {
	mem *vfs.MemFS
	// armed gates syncs; entered is signalled once per gated Sync; release
	// is closed to let gated syncs proceed.
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	// failSync, when set, makes every gated Sync return this error instead
	// of syncing.
	failSync atomic.Pointer[error]
}

func newGateFS() *gateFS {
	return &gateFS{
		mem:     vfs.NewMemFS(),
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g *gateFS) Create(name string) (vfs.File, error) {
	f, err := g.mem.Create(name)
	return g.wrap(name, f), err
}

func (g *gateFS) Open(name string) (vfs.File, error) {
	f, err := g.mem.Open(name)
	return g.wrap(name, f), err
}

func (g *gateFS) Remove(name string) error         { return g.mem.Remove(name) }
func (g *gateFS) Exists(name string) (bool, error) { return g.mem.Exists(name) }
func (g *gateFS) List() ([]string, error)          { return g.mem.List() }

func (g *gateFS) wrap(name string, f vfs.File) vfs.File {
	if f == nil || name != "wal.log" {
		return f
	}
	return &gateFile{File: f, g: g}
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		<-f.g.release
		if errp := f.g.failSync.Load(); errp != nil {
			return *errp
		}
	}
	return f.File.Sync()
}

func rec(txn types.TxnID) *Record {
	return &Record{Type: TypeHeapInsert, TxnID: txn, Flags: FlagRedo | FlagUndo, Payload: []byte("gc")}
}

// TestForceAll is the "flush everything" entry point: after ForceAll every
// appended record is below FlushedLSN, and a second call is a no-op.
func TestForceAll(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(rec(types.TxnID(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.FlushedLSN(), l.NextLSN(); got != want {
		t.Fatalf("FlushedLSN = %d after ForceAll, want NextLSN %d", got, want)
	}
	syncs := fs.Stats().Syncs
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Syncs != syncs {
		t.Fatal("ForceAll on a clean log performed I/O")
	}
}

// TestForceTargetClamping pins the compatibility behavior ForceAll replaces:
// unassigned-LSN and all-ones targets mean "everything appended so far".
func TestForceTargetClamping(t *testing.T) {
	l, _ := Open(vfs.NewMemFS())
	if _, err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if got, want := l.FlushedLSN(), l.NextLSN(); got != want {
		t.Fatalf("Force(NextLSN) flushed to %d, want %d", got, want)
	}
	if _, err := l.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(types.LSN(^uint64(0))); err != nil {
		t.Fatal(err)
	}
	if got, want := l.FlushedLSN(), l.NextLSN(); got != want {
		t.Fatalf("Force(max) flushed to %d, want %d", got, want)
	}
}

// TestAppendNotGatedOnInflightSync is the double-buffer contract: while a
// Force is parked inside the log file's fsync, Append must still complete.
// The pre-group-commit log held the one mutex across WriteAt+Sync, so this
// test times out against it.
func TestAppendNotGatedOnInflightSync(t *testing.T) {
	g := newGateFS()
	l, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	lsn1, err := l.Append(rec(1))
	if err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	forceErr := make(chan error, 1)
	go func() { forceErr <- l.Force(lsn1) }()
	<-g.entered // the leader is inside Sync, holding no log mutex

	appended := make(chan types.LSN, 1)
	go func() {
		lsn, err := l.Append(rec(2))
		if err != nil {
			t.Error(err)
		}
		appended <- lsn
	}()
	select {
	case <-appended:
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked behind an in-flight Sync")
	}
	g.armed.Store(false)
	close(g.release)
	if err := <-forceErr; err != nil {
		t.Fatal(err)
	}
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitBatching: appends landing while a flush is in flight are
// all made durable by ONE follow-up flush, however many committers forced
// them. 1 gated flush + 6 concurrent committers must cost exactly 2 syncs.
func TestGroupCommitBatching(t *testing.T) {
	g := newGateFS()
	l, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	lsn0, _ := l.Append(rec(1))
	base := g.mem.Stats().Syncs
	g.armed.Store(true)
	forceErr := make(chan error, 1)
	go func() { forceErr <- l.Force(lsn0) }()
	<-g.entered

	// Six committers append while flush #1 is stuck, then all force. Their
	// records are all in the append buffer before the gate opens, so the
	// next epoch's swap covers every one of them.
	const committers = 6
	lsns := make([]types.LSN, committers)
	for i := range lsns {
		lsns[i], _ = l.Append(rec(types.TxnID(10 + i)))
	}
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := range lsns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Force(lsns[i])
		}(i)
	}
	g.armed.Store(false)
	close(g.release)
	wg.Wait()
	if err := <-forceErr; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if got := g.mem.Stats().Syncs - base; got != 2 {
		t.Fatalf("6 concurrent committers cost %d syncs, want 2 (1 gated + 1 group)", got)
	}
	if got, want := l.FlushedLSN(), l.NextLSN(); got != want {
		t.Fatalf("FlushedLSN = %d, want %d", got, want)
	}
	st := l.Stats()
	if st.Forces != 2 || st.ForceAttempts != 2 || st.ForceErrors != 0 {
		t.Fatalf("stats = %+v, want 2 attempted, 2 completed, 0 errors", st)
	}
}

// TestEpochErrorBroadcast: when the leader's Sync fails, EVERY committer
// parked on that epoch gets the error — none may be told its commit is
// durable. The test parks the leader in the gate, waits (via epoch
// introspection) until all followers joined, then fails the sync.
func TestEpochErrorBroadcast(t *testing.T) {
	g := newGateFS()
	l, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	const committers = 4
	lsns := make([]types.LSN, committers)
	for i := range lsns {
		lsns[i], _ = l.Append(rec(types.TxnID(i + 1)))
	}
	g.armed.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := range lsns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Force(lsns[i])
		}(i)
	}
	<-g.entered // a leader emerged and is inside Sync

	// Wait until the other three are parked on the leader's epoch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		waiters := uint64(0)
		if l.curEpoch != nil {
			waiters = l.curEpoch.waiters
		}
		l.mu.Unlock()
		if waiters == committers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d committers joined the epoch", waiters, committers)
		}
		time.Sleep(time.Millisecond)
	}

	injected := errors.New("injected sync failure")
	g.failSync.Store(&injected)
	close(g.release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, injected) {
			t.Fatalf("committer %d error = %v, want the leader's sync failure", i, err)
		}
	}
	if got := l.FlushedLSN(); got != 1 {
		t.Fatalf("FlushedLSN advanced to %d after a failed flush", got)
	}
	st := l.Stats()
	if st.ForceAttempts != 1 || st.Forces != 0 || st.ForceErrors != 1 {
		t.Fatalf("stats = %+v, want 1 attempted, 0 completed, 1 error", st)
	}

	// The failed epoch's records went back to the append buffer: a retry
	// with a healthy disk makes everything durable, and the log re-reads
	// without duplicate or missing records.
	g.failSync.Store(nil)
	g.armed.Store(false)
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.FlushedLSN(), l.NextLSN(); got != want {
		t.Fatalf("FlushedLSN = %d after retry, want %d", got, want)
	}
	assertLogRecords(t, l, committers)
}

// TestForceErrorCountersAndRetry covers the attempted-vs-completed split on
// the faultfs path the crash sweep uses: a Force whose Sync fails counts as
// attempted+error, leaves the bytes buffered, and a later Force retries them
// to a byte-identical log.
func TestForceErrorCountersAndRetry(t *testing.T) {
	mem := vfs.NewMemFS()
	ffs := faultfs.Wrap(mem, faultfs.Config{Mode: faultfs.ModeError, Point: 2, Seed: 1})
	l, err := Open(ffs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var last types.LSN
	for i := 0; i < n; i++ {
		last, _ = l.Append(rec(types.TxnID(i + 1)))
	}
	ffs.Arm() // point 1 = the flush's WriteAt, point 2 = its Sync
	if err := l.Force(last); err == nil {
		t.Fatal("Force with injected sync error returned nil")
	}
	st := l.Stats()
	if st.ForceAttempts != 1 || st.Forces != 0 || st.ForceErrors != 1 {
		t.Fatalf("stats = %+v, want 1 attempted, 0 completed, 1 error", st)
	}
	// After the failed sync the file's volatile image already holds the
	// records; the iterator must not see them twice (it trusts the buffer,
	// not file bytes at/beyond FlushedLSN).
	assertLogRecords(t, l, n)
	if err := l.Force(last); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.ForceAttempts != 2 || st.Forces != 1 || st.ForceErrors != 1 {
		t.Fatalf("stats after retry = %+v, want 2 attempted, 1 completed, 1 error", st)
	}
	assertLogRecords(t, l, n)
}

// TestIteratorSeesInflightFlush: a log read taken while a flush is parked in
// fsync must still see every record exactly once — the in-flight buffer is
// in neither the durable prefix nor the append buffer, and rollbacks walking
// PrevLSN chains read through exactly this window.
func TestIteratorSeesInflightFlush(t *testing.T) {
	g := newGateFS()
	l, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	lsn1, _ := l.Append(rec(1))
	g.armed.Store(true)
	forceErr := make(chan error, 1)
	go func() { forceErr <- l.Force(lsn1) }()
	<-g.entered

	if _, err := l.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	assertLogRecords(t, l, 2)
	if r, err := l.ReadAt(lsn1); err != nil || r.TxnID != 1 {
		t.Fatalf("ReadAt(inflight record) = %+v, %v", r, err)
	}

	g.armed.Store(false)
	close(g.release)
	if err := <-forceErr; err != nil {
		t.Fatal(err)
	}
}

// assertLogRecords iterates the log from the start and checks it holds
// exactly n decodable records with strictly increasing LSNs.
func assertLogRecords(t *testing.T, l *Log, n int) {
	t.Helper()
	it, err := l.NewIterator(1)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var last types.LSN
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.LSN <= last {
			t.Fatalf("record %d LSN %d not > previous %d", count, r.LSN, last)
		}
		last = r.LSN
		count++
	}
	if count != n {
		t.Fatalf("log holds %d records, want %d", count, n)
	}
}
