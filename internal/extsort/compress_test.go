package extsort

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"onlineindex/internal/faultfs"
	"onlineindex/internal/vfs"
)

// sortAllWith is sortAll with the compression knob exposed; it also returns
// the total run-file bytes so tests can assert the compression actually
// shrank the spill.
func sortAllWith(t *testing.T, fs *vfs.MemFS, items [][]byte, capacity int, comp bool) ([][]byte, int64) {
	t.Helper()
	s := NewSorterWith(fs, "t", capacity, comp)
	for _, it := range items {
		if err := s.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for _, r := range runs {
		spilled += r.Bytes
	}
	m, err := NewMergerWith(fs, runs, nil, MergeOptions{Compress: comp})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var out [][]byte
	for {
		it, _, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out, spilled
		}
		out = append(out, bytes.Clone(it))
	}
}

func TestCompressedSortMatchesUncompressed(t *testing.T) {
	// Keys with long shared prefixes (the common case for composite or
	// string keys): the compressed pipeline must produce byte-identical
	// output in identical order, from strictly fewer spilled bytes.
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(2000)
	items := make([][]byte, len(perm))
	for i, p := range perm {
		items[i] = []byte(fmt.Sprintf("warehouse-%04d-item-%06d", p%13, p))
	}
	plain, plainBytes := sortAllWith(t, vfs.NewMemFS(), items, 64, false)
	comp, compBytes := sortAllWith(t, vfs.NewMemFS(), items, 64, true)
	if len(plain) != len(comp) {
		t.Fatalf("compressed merge yields %d items, uncompressed %d", len(comp), len(plain))
	}
	for i := range plain {
		if !bytes.Equal(plain[i], comp[i]) {
			t.Fatalf("item %d differs: %q vs %q", i, plain[i], comp[i])
		}
	}
	if compBytes >= plainBytes {
		t.Fatalf("compression did not shrink the spill: %d >= %d bytes", compBytes, plainBytes)
	}
	t.Logf("spilled %d compressed vs %d uncompressed (%.1f%%)",
		compBytes, plainBytes, 100*float64(compBytes)/float64(plainBytes))
}

func TestCompressedSortCheckpointRestart(t *testing.T) {
	// A mid-run checkpoint with compression on: the delta chain must restart
	// from RunMeta.High after reopenRun truncates, so items written after
	// resume decode against the same predecessor they were encoded against.
	fs := vfs.NewMemFS()
	s := NewSorterWith(fs, "t", 8, true)
	var all [][]byte
	add := func(s *Sorter, lo, hi int) {
		for i := lo; i < hi; i++ {
			it := []byte(fmt.Sprintf("prefix-shared-%06d", (i*7919)%1000))
			all = append(all, it)
			if err := s.Add(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(s, 0, 500)
	st, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Compress {
		t.Fatal("checkpoint lost the compression bit")
	}
	// Crash: keep writing (lost work), then resume from the durable state.
	add(s, 500, 600)
	all = all[:len(all)-100]
	s2, _, err := ResumeSorter(fs, st)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Compressed() {
		t.Fatal("resumed sorter dropped the run format")
	}
	add(s2, 500, 1000)
	runs, err := s2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMergerWith(fs, runs, nil, MergeOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var out [][]byte
	for {
		it, _, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, bytes.Clone(it))
	}
	checkSorted(t, out, len(all))
}

func TestRunWriterAddPropagatesFlushError(t *testing.T) {
	// Regression: add buffers records and flushes when the buffer crosses
	// 64 KiB; a write error inside that flush must surface from add itself,
	// not be deferred to close (by which point the checkpoint may already
	// have recorded the run as longer than the file).
	for _, comp := range []bool{false, true} {
		t.Run(fmt.Sprintf("comp=%v", comp), func(t *testing.T) {
			mem := vfs.NewMemFS()
			ffs := faultfs.Wrap(mem, faultfs.Config{Mode: faultfs.ModeError, Point: 1})
			w, err := createRun(ffs, "r", comp)
			if err != nil {
				t.Fatal(err)
			}
			ffs.Arm()
			payload := bytes.Repeat([]byte("x"), 4096)
			var addErr error
			for i := 0; i < 32 && addErr == nil; i++ {
				// Distinct suffixes keep the compressed deltas long enough to
				// cross the flush threshold in a handful of adds.
				addErr = w.add(append([]byte(fmt.Sprintf("%06d-", i)), payload...))
			}
			if !errors.Is(addErr, faultfs.ErrInjected) {
				t.Fatalf("add swallowed the flush error: got %v", addErr)
			}
		})
	}
}

// stuckFile is a vfs.File whose reads report no bytes and no error, forever —
// the pathological behavior ErrNoProgress exists to bound.
type stuckFile struct{}

func (stuckFile) ReadAt(p []byte, off int64) (int, error)  { return 0, nil }
func (stuckFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (stuckFile) Size() (int64, error)                     { return 0, nil }
func (stuckFile) Sync() error                              { return nil }
func (stuckFile) Truncate(size int64) error                { return nil }
func (stuckFile) Close() error                             { return nil }
func (stuckFile) Name() string                             { return "stuck" }

func TestRunReaderNoProgressSync(t *testing.T) {
	// Regression: a ReadAt that returns (0, nil) — illegal for a vfs.File
	// but possible from a buggy wrapper — used to spin fill forever. The
	// bounded retry must give up with ErrNoProgress.
	r := &runReader{f: stuckFile{}}
	_, _, err := r.next()
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("sync fill: got %v, want ErrNoProgress", err)
	}
}

func TestRunReaderNoProgressPrefetch(t *testing.T) {
	// The same stall through the double-buffered path: the prefetch
	// goroutine must deliver ErrNoProgress as its terminal block (and then
	// exit) rather than loop.
	r := &runReader{f: stuckFile{}}
	r.startPrefetch()
	defer r.close()
	_, _, err := r.next()
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("prefetch fill: got %v, want ErrNoProgress", err)
	}
}

func FuzzRunDelta(f *testing.F) {
	f.Add([]byte("abc\nabd\nabe"), uint8(1))
	f.Add([]byte("\x00\x00\x00\xff\xff"), uint8(0))
	f.Add([]byte("same\nsame\nsame\nsamey"), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, cut uint8) {
		// Derive an item list from the raw input; empty items are legal run
		// records (a key can compress to nothing beyond the shared prefix).
		items := bytes.Split(raw, []byte("\n"))
		for _, it := range items {
			if len(it) > 0xffff {
				t.Skip()
			}
		}
		fs := vfs.NewMemFS()
		w, err := createRun(fs, "r", true)
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoint/reopen mid-run at a fuzzer-chosen cut: the reopened
		// writer must seed its delta chain from the durable High.
		k := int(cut) % (len(items) + 1)
		for _, it := range items[:k] {
			if err := w.add(it); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.force(); err != nil {
			t.Fatal(err)
		}
		meta := w.meta
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		w, err = reopenRun(fs, meta, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items[k:] {
			if err := w.add(it); err != nil {
				t.Fatal(err)
			}
		}
		meta = w.meta
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		r, err := openRun(fs, meta, true)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		for i, want := range items {
			got, ok, err := r.next()
			if err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
			if !ok {
				t.Fatalf("run ended at item %d of %d", i, len(items))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("item %d round-tripped to %q, want %q", i, got, want)
			}
		}
		if _, ok, _ := r.next(); ok {
			t.Fatalf("run has more than %d items", len(items))
		}
	})
}
