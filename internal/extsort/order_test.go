package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"onlineindex/internal/vfs"
)

// orderKey draws keys that stress the tournament's cached 8-byte prefixes:
// keys shorter than 8 bytes, keys that differ only by trailing 0x00 bytes,
// keys that share a long prefix and differ past byte 8, and (through the
// small alphabet) plenty of exact duplicates.
func orderKey(rng *rand.Rand) []byte {
	alphabet := []byte{0x00, 0x01, 'a', 0xff}
	var k []byte
	switch rng.Intn(4) {
	case 0: // short
		k = make([]byte, rng.Intn(8))
	case 1: // trailing zeros on a short stem
		k = append([]byte("ab"), make([]byte, rng.Intn(10))...)
		return k
	case 2: // long shared prefix
		k = append([]byte("shared-prefix-16"), make([]byte, rng.Intn(6))...)
		for i := 16; i < len(k); i++ {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return k
	default:
		k = make([]byte, 8+rng.Intn(8))
	}
	for i := range k {
		k[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return k
}

// tagged is an item with the run (or tag) it belongs to.
type tagged struct {
	tag  int
	item []byte
}

// TestLoserTreeRunOrderMatchesStableSort drains run-generation tournaments
// of random (tag, item) leaves and requires the (tag, bytes.Compare) order.
func TestLoserTreeRunOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(17)
		lt := newLoserTree(n, false)
		var want []tagged
		filled := rng.Intn(n + 1) // the rest stay exhausted
		for i := 0; i < filled; i++ {
			tg := tagged{tag: rng.Intn(3), item: orderKey(rng)}
			lt.setRun(i, uint64(tg.tag), tg.item)
			want = append(want, tg)
		}
		lt.build()
		slices.SortStableFunc(want, func(a, b tagged) int {
			if a.tag != b.tag {
				return a.tag - b.tag
			}
			return bytes.Compare(a.item, b.item)
		})
		var got []tagged
		for !lt.empty() {
			w := lt.winner()
			got = append(got, tagged{tag: int(lt.winnerTag()), item: bytes.Clone(lt.items[w])})
			lt.clear(w)
			lt.adjust(w)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: drained %d leaves, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].tag != want[i].tag || !bytes.Equal(got[i].item, want[i].item) {
				t.Fatalf("trial %d: position %d = (%d, %x), want (%d, %x)",
					trial, i, got[i].tag, got[i].item, want[i].tag, want[i].item)
			}
		}
	}
}

// writeRuns writes each item list, sorted, as one run file.
func writeRuns(t testing.TB, fs vfs.FS, runs [][][]byte) []RunMeta {
	t.Helper()
	var metas []RunMeta
	for i, items := range runs {
		slices.SortStableFunc(items, bytes.Compare)
		w, err := createRun(fs, fmt.Sprintf("order-run-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if err := w.add(it); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		metas = append(metas, w.meta)
	}
	return metas
}

// checkMergeOrder merges the runs and requires the stable sort of their
// concatenation in run order: equal items must leave in run order, and
// every item must name its own run.
func checkMergeOrder(t testing.TB, runs [][][]byte) {
	t.Helper()
	fs := vfs.NewMemFS()
	metas := writeRuns(t, fs, runs)
	var want []tagged
	for r, items := range runs {
		for _, it := range items {
			want = append(want, tagged{tag: r, item: it})
		}
	}
	slices.SortStableFunc(want, func(a, b tagged) int { return bytes.Compare(a.item, b.item) })
	m, err := NewMerger(fs, metas, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; ; i++ {
		it, src, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want) {
				t.Fatalf("merge ended after %d items, want %d", i, len(want))
			}
			return
		}
		if i >= len(want) {
			t.Fatalf("merge yields (run %d, %x) past its %d items", src, it, len(want))
		}
		if src != want[i].tag || !bytes.Equal(it, want[i].item) {
			t.Fatalf("merge position %d = (run %d, %x), want (run %d, %x)", i, src, it, want[i].tag, want[i].item)
		}
	}
}

// TestMergeOrderMatchesStableSort holds the merge tournament against
// slices.SortStableFunc over runs rich in cross-run duplicates.
func TestMergeOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		runs := make([][][]byte, 1+rng.Intn(9))
		for r := range runs {
			for i := rng.Intn(40); i > 0; i-- {
				runs[r] = append(runs[r], orderKey(rng))
			}
		}
		checkMergeOrder(t, runs)
	}
}

// TestSortOrderMatchesStableSort runs whole sorts (replacement selection
// with checkpoint drains, then the merge) and requires the stable sort of
// the input.
func TestSortOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		items := make([][]byte, rng.Intn(600))
		for i := range items {
			items[i] = orderKey(rng)
		}
		capacity := 2 + rng.Intn(30)
		fs := vfs.NewMemFS()
		s := NewSorter(fs, "t", capacity)
		every := 1 + rng.Intn(200)
		for i, it := range items {
			if err := s.Add(it); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every == 0 {
				if _, err := s.Checkpoint(nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		runs, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got := mergeRuns(t, fs, runs)
		want := slices.Clone(items)
		slices.SortStableFunc(want, bytes.Compare)
		requireSameOutput(t, got, want, fmt.Sprintf("trial %d", trial))
	}
}

// TestMergerNextBorrowedItems checks the borrow contract on one run, where
// every Next refills the same reader: each item, copied by the consumer
// before the next call, is correct, though the reader rebuilds each item
// against the one it just lent out.
func TestMergerNextBorrowedItems(t *testing.T) {
	items := [][]byte{
		[]byte("a"), []byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00longer-tail"),
		[]byte("abc"), []byte("abc"), []byte("b"), []byte("shared-prefix-16-x"),
		[]byte("shared-prefix-16-y"), []byte("shared-prefix-16-yy"), []byte("z"),
	}
	fs := vfs.NewMemFS()
	metas := writeRuns(t, fs, [][][]byte{slices.Clone(items)})
	m, err := NewMerger(fs, metas, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var kept [][]byte
	prev, _, _, _ := m.Next()
	for {
		kept = append(kept, bytes.Clone(prev))
		next, _, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		prev = next
	}
	requireSameOutput(t, kept, items, "borrowed")
}

// FuzzTournamentOrder holds both tournaments against the stable sort: the
// input splits into items (each prefixed by its length mod 13), which go
// through a whole sort and, dealt round-robin into runs, through a merge.
func FuzzTournamentOrder(f *testing.F) {
	f.Add([]byte("\x02ab\x03ab\x00\x01a\x00\x02ab"), uint8(2))
	f.Add([]byte("\x0ashared-pre\x0ashared-pre\x09shared-pr\x00"), uint8(3))
	f.Add([]byte("\x08\xff\xff\xff\xff\xff\xff\xff\xff\x07\xff\xff\xff\xff\xff\xff\xff"), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		var items [][]byte
		for len(data) > 0 {
			n := min(int(data[0])%13, len(data)-1)
			items = append(items, data[1:1+n])
			data = data[1+n:]
		}
		capacity := 2 + int(shape%7)
		fs := vfs.NewMemFS()
		s := NewSorter(fs, "f", capacity)
		for _, it := range items {
			if err := s.Add(it); err != nil {
				t.Fatal(err)
			}
		}
		runs, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(items)
		slices.SortStableFunc(want, bytes.Compare)
		requireSameOutput(t, mergeRuns(t, fs, runs), want, "sort")

		dealt := make([][][]byte, 1+int(shape%5))
		for i, it := range items {
			dealt[i%len(dealt)] = append(dealt[i%len(dealt)], it)
		}
		checkMergeOrder(t, dealt)
	})
}

// TestSorterAddZeroAllocsAfterFill gates the sorter's steady state: once
// the tournament is full and its leaf buffers have grown, an Add copies
// into the winner's buffer and allocates nothing.
func TestSorterAddZeroAllocsAfterFill(t *testing.T) {
	s := NewSorter(vfs.NewMemFS(), "a", 64)
	i := 0
	add := func() {
		if err := s.Add([]byte(fmt.Sprintf("key-%012d", i))); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 5000 { // fill, grow the leaf buffers and the run writer's buffer
		add()
	}
	key := []byte("key-000000000000")
	avg := testing.AllocsPerRun(2000, func() {
		for j, v := len(key)-1, i; j >= len("key-"); j, v = j-1, v/10 {
			key[j] = byte('0' + v%10)
		}
		if err := s.Add(key); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Sorter.Add after the fill allocates %.2f objects/item, want 0", avg)
	}
}

// TestMergerNextZeroAllocs gates the merge's steady state: each reader
// alternates two item buffers, so Next allocates nothing once they and the
// read window have grown.
func TestMergerNextZeroAllocs(t *testing.T) {
	fs := vfs.NewMemFS()
	runs := make([][][]byte, 4)
	for i := 0; i < 40000; i++ {
		runs[i%4] = append(runs[i%4], []byte(fmt.Sprintf("key-%012d", i)))
	}
	m, err := NewMerger(fs, writeRuns(t, fs, runs), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	next := func() {
		if _, _, ok, err := m.Next(); err != nil || !ok {
			t.Fatal(err, ok)
		}
	}
	for i := 0; i < 1000; i++ {
		next()
	}
	if avg := testing.AllocsPerRun(20000, next); avg != 0 {
		t.Fatalf("Merger.Next allocates %.2f objects/item, want 0", avg)
	}
}
