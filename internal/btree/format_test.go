package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"onlineindex/internal/buffer"
	"onlineindex/internal/enc"
	"onlineindex/internal/page"
	"onlineindex/internal/types"
	"onlineindex/internal/wal"
)

// oldImage encodes n in the retired full-key page layout: a flags byte
// holding only the leaf bit, no prefix, and every key stored whole.
func oldImage(n *Node) []byte {
	img := make([]byte, page.Size)
	n.MarshalHeader(img, page.KindBTree)
	off := page.HeaderSize
	if n.leaf {
		img[off] = flagLeaf
	}
	off++
	binary.LittleEndian.PutUint32(img[off:], uint32(n.next))
	off += 4
	if n.leaf {
		binary.LittleEndian.PutUint16(img[off:], uint16(len(n.entries)))
		off += 2
		for _, e := range n.entries {
			off = putRID(img, putKey(img, off, e.Key), e.RID)
			off++ // pseudo flag
		}
		return img
	}
	binary.LittleEndian.PutUint16(img[off:], uint16(len(n.seps)))
	off += 2
	for _, c := range n.children {
		binary.LittleEndian.PutUint32(img[off:], uint32(c))
		off += 4
	}
	for _, s := range n.seps {
		off = putRID(img, putKey(img, off, s.key), s.rid)
	}
	return img
}

func testLeaf(entries int) *Node {
	n := NewLeaf()
	for i := 0; i < entries; i++ {
		n.insertEntryAt(i, Entry{Key: keyOf(i), RID: ridOf(i), Pseudo: i%3 == 0})
	}
	return n
}

func TestPageImageRefusesOldFormat(t *testing.T) {
	for _, n := range []*Node{testLeaf(20), NewInternal([]types.PageNum{1, 2}, []sep{{key: keyOf(1), rid: ridOf(1)}})} {
		var d Node
		if err := d.UnmarshalPage(oldImage(n)); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("leaf=%v: UnmarshalPage of a full-key image: got %v, want ErrOldFormat", n.leaf, err)
		}
		if _, err := page.Unmarshal(oldImage(n)); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("leaf=%v: page.Unmarshal of a full-key image: got %v, want ErrOldFormat", n.leaf, err)
		}
	}
}

func TestNodeLogPayloadRefusesOldFormat(t *testing.T) {
	// The retired node content began with a flags byte holding only the
	// leaf bit.
	old := enc.NewWriter().U8(flagLeaf).U32(uint32(NoPage)).U32(1).
		Bytes32(keyOf(1)).RID(ridOf(1)).Bool(false).Bytes()
	if _, err := decodeContent(enc.NewReader(old)); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("decodeContent of untagged content: got %v, want ErrOldFormat", err)
	}
	w := enc.NewWriter()
	testLeaf(3).encodeContent(w)
	if _, err := decodeContent(enc.NewReader(w.Bytes())); err != nil {
		t.Fatalf("tagged content: %v", err)
	}

	// Redo of a logged split whose right-node content is untagged.
	_, log, pool, _ := newTree(t, false, smallBudget)
	pl := SplitPayload{Left: RootPage, Right: 1, RightContent: old, Parent: RootPage}
	rec := &wal.Record{Type: wal.TypeIdxSplit, Flags: wal.FlagRedo,
		PageID: types.PageID{File: 7, Page: RootPage}, Payload: pl.Encode()}
	lsn, err := log.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.LSN = lsn
	if err := Redo(pool, rec); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("redo of an untagged split payload: got %v, want ErrOldFormat", err)
	}
}

func TestLoaderStateRefusesOldFormat(t *testing.T) {
	// A loader checkpointed over full-key pages cannot be restarted: its
	// rightmost branch is refused when the restart fetches it.
	fs, log, pool, tr := newTree(t, false, smallBudget)
	ld := tr.NewLoader(0.9)
	for i := 0; i < 500; i++ {
		if err := ld.Add(Entry{Key: keyOf(i), RID: ridOf(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ld.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	leafPg := st.LevelPages[0]
	f, err := pool.Fetch(tr.pid(leafPg))
	if err != nil {
		t.Fatal(err)
	}
	img := oldImage(f.Page().(*Node))
	pool.Unpin(f)
	file, err := fs.Open(fmt.Sprintf("f%06d.dat", tr.FileID()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.WriteAt(img, int64(leafPg)*page.Size); err != nil {
		t.Fatal(err)
	}
	file.Close()

	// Restart in a fresh pool, which must read the page back from the file.
	pool2 := buffer.New(fs, log, 256)
	tr2, err := Open(pool2, tr.FileID(), Config{Budget: smallBudget})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.RestartLoader(st, 0.9); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("RestartLoader over a full-key leaf: got %v, want ErrOldFormat", err)
	}
}

// corruptPrefixImage is a leaf image whose prefix length, page.Size-16,
// ends the prefix exactly at the end of the page: the count after it lies
// past the image.
func corruptPrefixImage() []byte {
	img := make([]byte, page.Size)
	img[0] = byte(page.KindBTree)
	img[page.HeaderSize] = flagLeaf | flagComp
	binary.LittleEndian.PutUint16(img[page.HeaderSize+1+4:], page.Size-16)
	return img
}

func TestNodeUnmarshalCorruptImages(t *testing.T) {
	huge := testLeaf(2)
	img, err := huge.MarshalPage()
	if err != nil {
		t.Fatal(err)
	}
	countAt := page.HeaderSize + 1 + 4 + 2 + len(huge.prefix)
	binary.LittleEndian.PutUint16(img[countAt:], 0xffff) // more records than the page holds

	branch, err := NewInternal([]types.PageNum{1, 2}, []sep{{key: keyOf(1), rid: ridOf(1)}}).MarshalPage()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(branch[page.HeaderSize+1+4+2+len(keyOf(1)):], 0xffff) // children past the page

	keyPastEnd, err := testLeaf(2).MarshalPage()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(keyPastEnd[countAt+2:], page.Size) // first suffix length

	for name, img := range map[string][]byte{
		"prefix ends at page end": corruptPrefixImage(),
		"count past page end":     img,
		"children past page end":  branch,
		"key past page end":       keyPastEnd,
		"short image":             make([]byte, page.HeaderSize+3),
	} {
		var n Node
		if err := n.UnmarshalPage(img); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if errors.Is(err, ErrOldFormat) && name != "short image" {
			t.Errorf("%s: reported as the old format: %v", name, err)
		}
	}
}

// FuzzNodeImage feeds arbitrary page images to the node decoder: each
// either decodes or returns an error, never panics, and any image decoded
// once re-encodes to an image that decodes and re-encodes byte for byte.
func FuzzNodeImage(f *testing.F) {
	leafImg, err := testLeaf(20).MarshalPage()
	if err != nil {
		f.Fatal(err)
	}
	intlImg, err := NewInternal([]types.PageNum{1, 2, 3},
		[]sep{{key: keyOf(1), rid: ridOf(1)}, {key: keyOf(2), rid: ridOf(2)}}).MarshalPage()
	if err != nil {
		f.Fatal(err)
	}
	for _, img := range [][]byte{leafImg, intlImg, corruptPrefixImage(), oldImage(testLeaf(5))} {
		f.Add(bytes.TrimRight(img, "\x00"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img := make([]byte, page.Size)
		copy(img, data)
		var n Node
		if err := n.UnmarshalPage(img); err != nil {
			return
		}
		once, err := n.MarshalPage()
		if err != nil {
			t.Fatalf("re-encoding a decoded image: %v", err)
		}
		var m Node
		if err := m.UnmarshalPage(once); err != nil {
			t.Fatalf("decoding a MarshalPage image: %v", err)
		}
		twice, err := m.MarshalPage()
		if err != nil {
			t.Fatalf("re-encoding a MarshalPage image: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("a MarshalPage image does not re-encode byte for byte")
		}
		if m.used != m.computeUsed() || m.used != n.used {
			t.Fatalf("used = %d after the round trip, %d recomputed, %d first decoded", m.used, m.computeUsed(), n.used)
		}
	})
}
