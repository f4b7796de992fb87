package extsort

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"onlineindex/internal/enc"
	"onlineindex/internal/faultfs"
	"onlineindex/internal/vfs"
)

// sortAllSpill sorts items through runs and a merge and also returns the
// total run-file bytes, so tests can hold the prefix-delta format to its
// saving.
func sortAllSpill(t *testing.T, fs *vfs.MemFS, items [][]byte, capacity int) ([][]byte, int64) {
	t.Helper()
	s := NewSorter(fs, "t", capacity)
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
	return mergeRuns(t, fs, runs), spilled
}

func TestCompressedSortMatchesUncompressed(t *testing.T) {
	// Keys with long shared prefixes (the common case for composite or
	// string keys): the prefix-delta runs must yield exactly the sorted
	// input, from fewer bytes than length-prefixed records of the full
	// items (4 + len(item) each) would take.
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(2000)
	items := make([][]byte, len(perm))
	var full int64
	for i, p := range perm {
		items[i] = []byte(fmt.Sprintf("warehouse-%04d-item-%06d", p%13, p))
		full += int64(4 + len(items[i]))
	}
	got, spilled := sortAllSpill(t, vfs.NewMemFS(), items, 64)
	want := slices.Clone(items)
	slices.SortFunc(want, bytes.Compare)
	requireSameOutput(t, got, want, "sort")
	if spilled >= full {
		t.Fatalf("prefix-delta runs did not shrink the spill: %d >= %d bytes", spilled, full)
	}
	t.Logf("spilled %d bytes, %d as full records (%.1f%%)", spilled, full, 100*float64(spilled)/float64(full))
}

func TestCompressedSortCheckpointRestart(t *testing.T) {
	// A mid-run checkpoint: the delta chain must restart from RunMeta.High
	// after reopenRun truncates, so items written after resume decode
	// against the same predecessor they were encoded against.
	fs := vfs.NewMemFS()
	s := NewSorter(fs, "t", 8)
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
	// Crash: keep writing (lost work), then resume from the durable state.
	add(s, 500, 600)
	all = all[:len(all)-100]
	back, err := DecodeSortState(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := ResumeSorter(fs, back)
	if err != nil {
		t.Fatal(err)
	}
	add(s2, 500, 1000)
	runs, err := s2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, mergeRuns(t, fs, runs), len(all))
}

// oldSortState encodes st in the retired untagged layout, which began with
// the run count.
func oldSortState(st SortState) []byte {
	w := enc.NewWriter().U32(uint32(len(st.Runs)))
	for _, r := range st.Runs {
		r.encode(w)
	}
	return w.U64(st.NextRun).U64(st.CurRun).U64(st.Count).Bytes32(st.ScanPos).Bytes()
}

func TestSortStateRefusesOldFormat(t *testing.T) {
	st := SortState{Runs: []RunMeta{{Name: "t-run-000000", Count: 3, Bytes: 40, High: []byte("c")}},
		NextRun: 1, Count: 3, ScanPos: []byte("pos")}
	if _, err := DecodeSortState(st.Encode()); err != nil {
		t.Fatalf("tagged state: %v", err)
	}
	old := oldSortState(st)
	if _, err := DecodeSortState(old); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("DecodeSortState of an untagged state: got %v, want ErrOldFormat", err)
	}
	// The retired partitioned sort state: a sentinel, the prefix, and one
	// tagged state per partition.
	parted := enc.NewWriter().U32(0xffff_fffe).String32("t").U32(2).
		Bytes32(st.Encode()).Bytes32(st.Encode()).Bytes32(nil).Bytes()
	if _, err := DecodeSortState(parted); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("DecodeSortState of a partitioned state: got %v, want ErrOldFormat", err)
	}
}

func TestMergeStateRefusesOldFormat(t *testing.T) {
	st := MergeState{Runs: []RunMeta{{Name: "t-run-000000", Count: 3, Bytes: 40, High: []byte("c")}},
		Counters: []uint64{2}}
	if _, err := DecodeMergeState(st.Encode()); err != nil {
		t.Fatalf("tagged state: %v", err)
	}
	w := enc.NewWriter().U32(uint32(len(st.Runs)))
	for _, r := range st.Runs {
		r.encode(w)
	}
	w.U32(1).U64(2)
	if _, err := DecodeMergeState(w.Bytes()); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("DecodeMergeState of an untagged state: got %v, want ErrOldFormat", err)
	}
}

func TestRunWriterAddPropagatesFlushError(t *testing.T) {
	// Regression: add buffers records and flushes when the buffer crosses
	// 64 KiB; a write error inside that flush must surface from add itself,
	// not be deferred to close (by which point the checkpoint may already
	// have recorded the run as longer than the file). comp=false feeds keys
	// with distinct leading bytes, so every record carries its whole key and
	// a handful of adds cross the threshold; comp=true feeds keys sharing a
	// 4 KiB prefix, so every record after the first is a short delta and the
	// threshold is crossed by record count instead.
	for _, comp := range []bool{false, true} {
		t.Run(fmt.Sprintf("comp=%v", comp), func(t *testing.T) {
			mem := vfs.NewMemFS()
			ffs := faultfs.Wrap(mem, faultfs.Config{Mode: faultfs.ModeError, Point: 1})
			w, err := createRun(ffs, "r")
			if err != nil {
				t.Fatal(err)
			}
			ffs.Arm()
			payload := bytes.Repeat([]byte("x"), 4096)
			var addErr error
			for i := 0; i < 1<<16 && addErr == nil; i++ {
				id := []byte(fmt.Sprintf("%06d-", i))
				if comp {
					addErr = w.add(append(slices.Clone(payload), id...))
				} else {
					addErr = w.add(append(id, payload...))
				}
			}
			if !errors.Is(addErr, faultfs.ErrInjected) {
				t.Fatalf("add swallowed the flush error: got %v", addErr)
			}
			if comp && w.meta.Count < 1000 {
				t.Fatalf("comp=true flushed after %d adds; the keys did not delta-encode", w.meta.Count)
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
		w, err := createRun(fs, "r")
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
		w, err = reopenRun(fs, meta)
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
		r, err := openRun(fs, meta)
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
