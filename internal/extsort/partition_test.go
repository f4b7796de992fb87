package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"onlineindex/internal/vfs"
)

// feedPages pushes items into the partitioned sorter in pages of pageLen,
// the way the scan pipeline's stage-3 feed does.
func feedPages(t *testing.T, p *PartSorter, items [][]byte, pageLen int) {
	t.Helper()
	for i := 0; i < len(items); i += pageLen {
		j := min(i+pageLen, len(items))
		page := make([][]byte, j-i)
		for k := i; k < j; k++ {
			page[k-i] = append([]byte(nil), items[k]...)
		}
		if err := p.FeedPage(page); err != nil {
			t.Fatal(err)
		}
	}
}

// mergeRuns merges the runs and returns the output items.
func mergeRuns(t *testing.T, fs *vfs.MemFS, runs []RunMeta, opts MergeOptions) [][]byte {
	t.Helper()
	m, err := NewMergerWith(fs, runs, nil, opts)
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
			return out
		}
		out = append(out, bytes.Clone(it))
	}
}

func requireSameOutput(t *testing.T, got, want [][]byte, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: out[%d] = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestPartitionedSortMatchesSerial is the differential property: for any
// partition count — including more partitions than runs or pages — the
// merged partitioned output is byte-identical to the serial sorter's merged
// output. Both the inline and the concurrent feed are covered.
func TestPartitionedSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(3000)
	items := make([][]byte, len(perm))
	for i, p := range perm {
		items[i] = item(p)
	}

	want := sortAll(t, vfs.NewMemFS(), items, 64)

	for _, parts := range []int{2, 3, 8} {
		for _, conc := range []bool{false, true} {
			t.Run(fmt.Sprintf("P=%d,concurrent=%v", parts, conc), func(t *testing.T) {
				fs := vfs.NewMemFS()
				p := NewPartSorter(fs, "pt", 64, parts, conc)
				feedPages(t, p, items, 17)
				runs, err := p.Finish()
				if err != nil {
					t.Fatal(err)
				}
				got := mergeRuns(t, fs, runs, MergeOptions{Readahead: conc})
				requireSameOutput(t, got, want, "partitioned")
			})
		}
	}

	// More partitions than pages (and than runs): 8 partitions, 2 pages of
	// ascending input — most partitions stay empty, each fed one produces a
	// single run.
	t.Run("P>runs", func(t *testing.T) {
		short := make([][]byte, 40)
		for i := range short {
			short[i] = item(i)
		}
		want := sortAll(t, vfs.NewMemFS(), short, 64)
		fs := vfs.NewMemFS()
		p := NewPartSorter(fs, "pt", 64, 8, true)
		feedPages(t, p, short, 20)
		runs, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 {
			t.Fatalf("runs = %d, want 2 (one per fed partition)", len(runs))
		}
		got := mergeRuns(t, fs, runs, MergeOptions{})
		requireSameOutput(t, got, want, "P>runs")
	})
}

// TestPartSortStateLegacyEncoding pins the compatibility rule: a
// one-partition checkpoint encodes byte-for-byte as the legacy SortState,
// and both decoders accept it.
func TestPartSortStateLegacyEncoding(t *testing.T) {
	fs := vfs.NewMemFS()
	p := NewPartSorter(fs, "t", 16, 1, true) // concurrency ignored at P=1
	items := make([][]byte, 200)
	for i := range items {
		items[i] = item(199 - i)
	}
	feedPages(t, p, items, 10)
	st, err := p.Checkpoint([]byte("pos:200"))
	if err != nil {
		t.Fatal(err)
	}
	enc := st.Encode()

	legacy := st.Parts[0]
	legacy.ScanPos = st.ScanPos
	if !bytes.Equal(enc, legacy.Encode()) {
		t.Fatal("single-partition encoding differs from legacy SortState encoding")
	}
	if _, err := DecodeSortState(enc); err != nil {
		t.Fatalf("legacy decoder rejects single-partition state: %v", err)
	}
	back, err := DecodePartSortState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Parts) != 1 || string(back.ScanPos) != "pos:200" {
		t.Fatalf("round-trip: parts=%d scanPos=%q", len(back.Parts), back.ScanPos)
	}
	// A partitioned state round-trips through its own encoding.
	multi := PartSortState{Prefix: "t", Parts: []SortState{legacy, {NextRun: 7}}, ScanPos: []byte("x")}
	back2, err := DecodePartSortState(multi.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back2.Prefix != "t" || len(back2.Parts) != 2 || back2.Parts[1].NextRun != 7 || string(back2.ScanPos) != "x" {
		t.Fatalf("partitioned round-trip: %+v", back2)
	}
}

// TestPartSorterCheckpointRestart crashes a partitioned sort mid-feed and
// resumes it (with a different tree capacity — the capacity is not part of
// the durable state), asserting no key is lost or duplicated.
func TestPartSorterCheckpointRestart(t *testing.T) {
	for _, conc := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", conc), func(t *testing.T) {
			fs := vfs.NewMemFS()
			rng := rand.New(rand.NewSource(9))
			perm := rng.Perm(4000)

			p := NewPartSorter(fs, "pt", 64, 4, conc)
			var st PartSortState
			const ckptAt, crashAt = 2000, 3100
			pageLen := 10
			for i := 0; i < crashAt; i += pageLen {
				page := make([][]byte, pageLen)
				for k := 0; k < pageLen; k++ {
					page[k] = item(perm[i+k])
				}
				if err := p.FeedPage(page); err != nil {
					t.Fatal(err)
				}
				if i+pageLen == ckptAt {
					cs, err := p.Checkpoint([]byte("pos:2000"))
					if err != nil {
						t.Fatal(err)
					}
					st = cs
				}
			}
			p.Close()

			// Crash: unsynced bytes written after the checkpoint disappear.
			fs.Crash()
			fs.Recover()

			st2, err := DecodePartSortState(st.Encode())
			if err != nil {
				t.Fatal(err)
			}
			p2, scanPos, err := ResumePartSorter(fs, st2, 32, conc)
			if err != nil {
				t.Fatal(err)
			}
			if string(scanPos) != "pos:2000" {
				t.Fatalf("scan pos = %q", scanPos)
			}
			if p2.Partitions() != 4 {
				t.Fatalf("partitions = %d, want 4 (from durable state)", p2.Partitions())
			}
			// Re-feed from the checkpointed position. Round-robin assignment
			// restarts from page ordinal 0 — placement across incarnations may
			// differ, which the per-partition restart rule absorbs.
			rest := make([][]byte, 0, 4000-ckptAt)
			for i := ckptAt; i < 4000; i++ {
				rest = append(rest, item(perm[i]))
			}
			feedPages(t, p2, rest, 10)
			runs, err := p2.Finish()
			if err != nil {
				t.Fatal(err)
			}
			out := mergeRuns(t, fs, runs, MergeOptions{})
			checkSorted(t, out, 4000)
			for i, o := range out {
				if string(o) != string(item(i)) {
					t.Fatalf("out[%d] = %q: restart lost or duplicated keys", i, o)
				}
			}
		})
	}
}

// TestResumeSorterWithCapacityMidRun exercises the capacity-not-durable
// path directly: a serial sort checkpointed mid-run resumes with a smaller
// and then a larger tree than it started with, and the output stays exact.
func TestResumeSorterWithCapacityMidRun(t *testing.T) {
	for _, resumeCap := range []int{16, 512} {
		t.Run(fmt.Sprintf("capacity=%d", resumeCap), func(t *testing.T) {
			fs := vfs.NewMemFS()
			perm := rand.New(rand.NewSource(5)).Perm(2000)
			s := NewSorter(fs, "t", 128)
			for i := 0; i < 1200; i++ {
				if err := s.Add(item(perm[i])); err != nil {
					t.Fatal(err)
				}
			}
			st, err := s.Checkpoint([]byte("pos:1200"))
			if err != nil {
				t.Fatal(err)
			}
			fs.Crash()
			fs.Recover()

			s2, scanPos, err := ResumeSorterWithCapacity(fs, st, resumeCap)
			if err != nil {
				t.Fatal(err)
			}
			if string(scanPos) != "pos:1200" {
				t.Fatalf("scan pos = %q", scanPos)
			}
			if s2.capacity != resumeCap {
				t.Fatalf("capacity = %d, want %d", s2.capacity, resumeCap)
			}
			for i := 1200; i < 2000; i++ {
				if err := s2.Add(item(perm[i])); err != nil {
					t.Fatal(err)
				}
			}
			runs, err := s2.Finish()
			if err != nil {
				t.Fatal(err)
			}
			out := mergeRuns(t, fs, runs, MergeOptions{})
			checkSorted(t, out, 2000)
			for i, o := range out {
				if string(o) != string(item(i)) {
					t.Fatalf("out[%d] = %q", i, o)
				}
			}
		})
	}
}

// TestMergeReadaheadMatchesSync verifies the prefetching reader produces
// the same stream as synchronous reads, including from a mid-merge
// checkpoint (prefetch starts after counter repositioning).
func TestMergeReadaheadMatchesSync(t *testing.T) {
	fs := vfs.NewMemFS()
	s := NewSorter(fs, "t", 64)
	perm := rand.New(rand.NewSource(13)).Perm(5000)
	for _, p := range perm {
		if err := s.Add(item(p)); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := mergeRuns(t, fs, runs, MergeOptions{})
	got := mergeRuns(t, fs, runs, MergeOptions{Readahead: true})
	requireSameOutput(t, got, want, "readahead")

	// Resume mid-merge with readahead on.
	m, err := NewMergerWith(fs, runs, nil, MergeOptions{Readahead: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2500; i++ {
		if _, _, ok, err := m.Next(); err != nil || !ok {
			t.Fatal(err, ok)
		}
	}
	st := m.State()
	m.Close()
	m2, err := ResumeMergerWith(fs, st, MergeOptions{Readahead: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for i := 2500; ; i++ {
		it, _, ok, err := m2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != 5000 {
				t.Fatalf("resumed merge ended at %d, want 5000", i)
			}
			break
		}
		if !bytes.Equal(it, want[i]) {
			t.Fatalf("resumed out[%d] = %q, want %q", i, it, want[i])
		}
	}
}
