package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"onlineindex/internal/vfs"
)

func item(i int) []byte { return []byte(fmt.Sprintf("item-%08d", i)) }

// sortAll pushes items, finishes runs, merges, and returns the output.
func sortAll(t *testing.T, fs *vfs.MemFS, items [][]byte, capacity int) [][]byte {
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
	m, err := NewMerger(fs, runs, nil)
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

func checkSorted(t *testing.T, out [][]byte, want int) {
	t.Helper()
	if len(out) != want {
		t.Fatalf("output has %d items, want %d", len(out), want)
	}
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1], out[i]) > 0 {
			t.Fatalf("output not sorted at %d: %q > %q", i, out[i-1], out[i])
		}
	}
}

func TestSortSmallPermutation(t *testing.T) {
	fs := vfs.NewMemFS()
	perm := rand.New(rand.NewSource(1)).Perm(1000)
	items := make([][]byte, len(perm))
	for i, p := range perm {
		items[i] = item(p)
	}
	out := sortAll(t, fs, items, 64)
	checkSorted(t, out, 1000)
	for i, o := range out {
		if string(o) != string(item(i)) {
			t.Fatalf("out[%d] = %q, want %q", i, o, item(i))
		}
	}
}

func TestSortWithDuplicates(t *testing.T) {
	fs := vfs.NewMemFS()
	var items [][]byte
	for i := 0; i < 500; i++ {
		items = append(items, item(i%50))
	}
	out := sortAll(t, fs, items, 16)
	checkSorted(t, out, 500)
}

func TestSortAlreadySortedProducesOneRun(t *testing.T) {
	// Replacement selection on sorted input yields a single run regardless
	// of memory size.
	fs := vfs.NewMemFS()
	s := NewSorter(fs, "t", 8)
	for i := 0; i < 1000; i++ {
		s.Add(item(i))
	}
	runs, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1 for sorted input", len(runs))
	}
	if runs[0].Count != 1000 {
		t.Fatalf("run count = %d", runs[0].Count)
	}
}

func TestReverseSortedRunLengthEqualsCapacity(t *testing.T) {
	// Worst case: reverse-sorted input gives runs of exactly `capacity`.
	fs := vfs.NewMemFS()
	s := NewSorter(fs, "t", 50)
	for i := 999; i >= 0; i-- {
		s.Add(item(i))
	}
	runs, _ := s.Finish()
	if len(runs) != 20 {
		t.Fatalf("runs = %d, want 20", len(runs))
	}
	for _, r := range runs {
		if r.Count != 50 {
			t.Fatalf("run count = %d, want 50", r.Count)
		}
	}
}

func TestMergeIsStableAcrossRuns(t *testing.T) {
	// Identical keys must come out in run order (side-file application
	// preserves the relative positions of identical keys, §3.2.5).
	fs := vfs.NewMemFS()
	w1, _ := createRun(fs, "r1")
	w1.add([]byte("a"))
	w1.add([]byte("k"))
	w1.force()
	w1.close()
	w2, _ := createRun(fs, "r2")
	w2.add([]byte("k"))
	w2.add([]byte("z"))
	w2.force()
	w2.close()
	m, err := NewMerger(fs, []RunMeta{
		{Name: "r1", Count: 2}, {Name: "r2", Count: 2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var srcs []int
	for {
		it, src, ok, _ := m.Next()
		if !ok {
			break
		}
		if string(it) == "k" {
			srcs = append(srcs, src)
		}
	}
	if len(srcs) != 2 || srcs[0] != 0 || srcs[1] != 1 {
		t.Fatalf("duplicate key sources = %v, want [0 1]", srcs)
	}
}

func TestSortPhaseCheckpointRestart(t *testing.T) {
	fs := vfs.NewMemFS()
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(5000)

	s := NewSorter(fs, "t", 128)
	var st SortState
	const crashAt = 3000
	for i := 0; i < crashAt; i++ {
		if err := s.Add(item(perm[i])); err != nil {
			t.Fatal(err)
		}
		if i == 1999 {
			// Checkpoint embeds the scan position (input index 2000).
			cs, err := s.Checkpoint([]byte("pos:2000"))
			if err != nil {
				t.Fatal(err)
			}
			st = cs
		}
	}

	// Crash: unsynced run bytes written after the checkpoint disappear.
	fs.Crash()
	fs.Recover()

	// Round-trip the state through its encoding (as the IB checkpoint
	// record would).
	st2, err := DecodeSortState(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	s2, scanPos, err := ResumeSorterWithCapacity(fs, st2, 128)
	if err != nil {
		t.Fatal(err)
	}
	if string(scanPos) != "pos:2000" {
		t.Fatalf("scan pos = %q", scanPos)
	}
	// Re-feed everything from the checkpointed scan position.
	for i := 2000; i < 5000; i++ {
		if err := s2.Add(item(perm[i])); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(fs, runs, nil)
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
	checkSorted(t, out, 5000)
	for i, o := range out {
		if string(o) != string(item(i)) {
			t.Fatalf("out[%d] = %q, want %q (no key lost or duplicated)", i, o, item(i))
		}
	}
}

func TestMergePhaseCheckpointRestart(t *testing.T) {
	fs := vfs.NewMemFS()
	// Build runs.
	s := NewSorter(fs, "t", 64)
	perm := rand.New(rand.NewSource(3)).Perm(3000)
	for _, p := range perm {
		s.Add(item(p))
	}
	runs, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 2 {
		t.Fatalf("need multiple runs, got %d", len(runs))
	}

	m, err := NewMerger(fs, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	var st MergeState
	for i := 0; i < 1700; i++ {
		it, _, ok, err := m.Next()
		if err != nil || !ok {
			t.Fatal(err, ok)
		}
		out = append(out, bytes.Clone(it))
		if i == 999 {
			st = m.State()
			out = out[:1000] // caller truncates its output to the checkpoint
		}
	}
	m.Close()

	// Crash: resume from the checkpoint; output after position 1000 is
	// discarded by the caller (truncate), so continue from there.
	out = out[:1000]
	st2, err := DecodeMergeState(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ResumeMerger(fs, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for {
		it, _, ok, err := m2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, bytes.Clone(it))
	}
	checkSorted(t, out, 3000)
	for i, o := range out {
		if string(o) != string(item(i)) {
			t.Fatalf("out[%d] = %q: merge restart lost or duplicated keys", i, o)
		}
	}
}

func TestCheckpointAtEveryIntervalStillCorrect(t *testing.T) {
	// Frequent checkpoints shorten runs but must never corrupt the output.
	fs := vfs.NewMemFS()
	perm := rand.New(rand.NewSource(11)).Perm(800)
	s := NewSorter(fs, "t", 32)
	for i, p := range perm {
		if err := s.Add(item(p)); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if _, err := s.Checkpoint(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(fs, runs, nil)
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
	checkSorted(t, out, 800)
}

func TestPropertySortMatchesStdlib(t *testing.T) {
	f := func(data [][]byte, seed int64) bool {
		if len(data) == 0 {
			return true
		}
		fs := vfs.NewMemFS()
		cap := 2 + int(seed%31+31)%31
		s := NewSorter(fs, "t", cap)
		for _, d := range data {
			if err := s.Add(d); err != nil {
				return false
			}
		}
		runs, err := s.Finish()
		if err != nil {
			return false
		}
		m, err := NewMerger(fs, runs, nil)
		if err != nil {
			return false
		}
		defer m.Close()
		var out [][]byte
		for {
			it, _, ok, err := m.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			out = append(out, bytes.Clone(it))
		}
		want := make([][]byte, len(data))
		copy(want, data)
		sort.SliceStable(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(out[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptySort(t *testing.T) {
	fs := vfs.NewMemFS()
	s := NewSorter(fs, "t", 8)
	runs, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("runs = %v", runs)
	}
	m, err := NewMerger(fs, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, ok, _ := m.Next(); ok {
		t.Fatal("empty merge produced an item")
	}
}

func TestLoserTreeBasics(t *testing.T) {
	lt := newLoserTree(4, false)
	for i, it := range []string{"c", "a", "b"} {
		lt.setRun(i, 0, []byte(it))
	}
	lt.build()
	var got []string
	for !lt.empty() {
		w := lt.winner()
		got = append(got, string(lt.items[w]))
		lt.clear(w)
		lt.adjust(w)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("drain order = %v", got)
	}
}

func TestLoserTreeTagOrdering(t *testing.T) {
	// Run tags dominate: tag-0 items all emit before tag-1 items.
	lt := newLoserTree(2, false)
	lt.setRun(0, 1, []byte("a"))
	lt.setRun(1, 0, []byte("z"))
	lt.build()
	if w := lt.winner(); string(lt.items[w]) != "z" {
		t.Fatalf("winner = %q, want z (tag 0 wins)", lt.items[w])
	}
}
