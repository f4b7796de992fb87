package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"onlineindex/internal/buffer"
	"onlineindex/internal/page"
	"onlineindex/internal/rm"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/wal"
)

// slabKey draws keys of varied length, so slab chunks fill unevenly.
func slabKey(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf("k%0*d", 1+rng.Intn(30), rng.Intn(5000)))
}

// heldKey is a key slice handed out by a node, with a copy of its bytes.
type heldKey struct{ slice, want []byte }

// TestNodeSlabKeysSurviveEdits decodes leaves from page images and edits
// them (inserts carving keys from the slab, removals) against a sorted
// model. Every key slice the node ever handed out must keep its bytes: a
// slab is never overwritten. However long the churn, the node's slab stays
// within a small multiple of a page: dead keys are left behind when the
// live ones move to a fresh slab.
func TestNodeSlabKeysSurviveEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := NewLeaf()
	var model []Entry
	var held []heldKey
	hold := func() {
		for _, e := range n.entries {
			held = append(held, heldKey{slice: e.Key, want: bytes.Clone(e.Key)})
		}
	}
	for step := 0; step < 20000; step++ {
		switch {
		case step%5000 == 0: // round-trip through a page image
			img, err := n.MarshalPage()
			if err != nil {
				t.Fatal(err)
			}
			n = &Node{}
			if err := n.UnmarshalPage(img); err != nil {
				t.Fatal(err)
			}
			clear(img) // the image is the caller's buffer, free for reuse
			hold()
		case rng.Intn(3) > 0 || len(model) == 0: // insert
			e := Entry{Key: slabKey(rng), RID: ridOf(rng.Intn(8))}
			i, exact := n.searchLeaf(e.Key, e.RID)
			if exact || !n.hasRoomEntry(e.Key, page.Size) {
				continue
			}
			n.insertEntryAt(i, e)
			model = slices.Insert(model, i, Entry{Key: bytes.Clone(e.Key), RID: e.RID})
			held = append(held, heldKey{slice: n.entries[i].Key, want: bytes.Clone(e.Key)})
		default: // remove
			i := rng.Intn(len(model))
			n.removeEntryAt(i)
			model = slices.Delete(model, i, i+1)
		}
		if len(n.entries) != len(model) {
			t.Fatalf("step %d: %d entries, model %d", step, len(n.entries), len(model))
		}
		for i, e := range n.entries {
			if !bytes.Equal(e.Key, model[i].Key) || e.RID != model[i].RID {
				t.Fatalf("step %d: entry %d = %q, model %q", step, i, e.Key, model[i].Key)
			}
		}
		if n.used != n.computeUsed() {
			t.Fatalf("step %d: used %d, recomputed %d", step, n.used, n.computeUsed())
		}
		if cap(n.slab) > 2*page.Size {
			t.Fatalf("step %d: slab holds %d bytes for %d live key bytes", step, cap(n.slab), n.keyBytes())
		}
		if !keysInSlab(n) {
			t.Fatalf("step %d: a live key lies outside the node's slab, pinning an old one", step)
		}
	}
	for _, h := range held {
		if !bytes.Equal(h.slice, h.want) {
			t.Fatalf("a handed-out key changed from %q to %q", h.want, h.slice)
		}
	}
}

// keysInSlab reports whether every live key of n lies in its current slab,
// so no older slab is kept alive by the node.
func keysInSlab(n *Node) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(n.slab)))
	hi := lo + uintptr(len(n.slab))
	for _, e := range n.entries {
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(e.Key))); len(e.Key) > 0 && (p < lo || p+uintptr(len(e.Key)) > hi) {
			return false
		}
	}
	return true
}

// TestTreeSlabModelSmallPool drives a tree through inserts, deletes and
// removals with varied-length keys in a pool small enough that pages are
// evicted and re-decoded all the time, so slab-decoded keys go through
// leaf inserts, splits and deletes. The tree must match a model.
func TestTreeSlabModelSmallPool(t *testing.T) {
	fs := vfs.NewMemFS()
	log, err := wal.Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(fs, log, 8)
	tl := &rm.SimpleLogger{L: log, Txn: 1}
	tr, err := Create(pool, 7, Config{Budget: smallBudget}, tl)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	model := map[string]bool{} // key+rid -> pseudo
	id := func(k []byte, r types.RID) string { return fmt.Sprintf("%s/%v", k, r) }
	for step := 0; step < 6000; step++ {
		k, r := slabKey(rng), ridOf(rng.Intn(4))
		switch rng.Intn(4) {
		case 0, 1:
			if _, conflict, err := tr.TxnInsert(tl, k, r); err != nil || conflict != nil {
				t.Fatalf("step %d insert: %v %v", step, err, conflict)
			}
			model[id(k, r)] = false
		case 2:
			if _, err := tr.TxnPseudoDelete(tl, k, r); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			model[id(k, r)] = true
		default:
			if _, err := tr.RemoveEntry(tl, k, r); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			delete(model, id(k, r))
		}
	}
	checkInvariants(t, tr)
	got := map[string]bool{}
	if err := tr.ScanRange(nil, nil, func(e Entry) bool {
		got[id(e.Key, e.RID)] = e.Pseudo
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("tree holds %d entries, model %d", len(got), len(model))
	}
	for k, pseudo := range model {
		if p, ok := got[k]; !ok || p != pseudo {
			t.Fatalf("entry %s: tree (present %v, pseudo %v), model pseudo %v", k, ok, p, pseudo)
		}
	}
}

// TestNodeUnmarshalAllocsPerPage gates leaf and branch decode: one slab per
// page, so the allocation count does not grow with the entry count. A
// decoded leaf keeps spare entry and key room, so the first insert into a
// freshly read page allocates nothing either.
func TestNodeUnmarshalAllocsPerPage(t *testing.T) {
	images := func(entries int) (leafImg, branchImg []byte) {
		leaf := NewLeaf()
		seps := make([]sep, 0, entries)
		children := []types.PageNum{0}
		for i := 0; i < entries; i++ {
			leaf.insertEntryAt(i, Entry{Key: keyOf(2 * i), RID: ridOf(i)})
			seps = append(seps, sep{key: keyOf(2 * i), rid: ridOf(i)})
			children = append(children, types.PageNum(i+1))
		}
		var err error
		if leafImg, err = leaf.MarshalPage(); err != nil {
			t.Fatal(err)
		}
		if branchImg, err = NewInternal(children, seps).MarshalPage(); err != nil {
			t.Fatal(err)
		}
		return leafImg, branchImg
	}
	allocs := func(entries int) float64 {
		leafImg, branchImg := images(entries)
		var total float64
		for _, img := range [][]byte{leafImg, branchImg} {
			total += testing.AllocsPerRun(50, func() {
				var d Node
				if err := d.UnmarshalPage(img); err != nil {
					t.Fatal(err)
				}
			})
		}
		return total
	}
	few, many := allocs(3), allocs(200)
	t.Logf("%.0f allocations at 3 entries, %.0f at 200", few, many)
	if many != few || many > 8 {
		t.Fatalf("decoding a leaf and a branch allocates %.0f objects at 3 entries, %.0f at 200; want the same small constant",
			few, many)
	}

	leafImg, _ := images(200)
	e := Entry{Key: keyOf(201), RID: ridOf(201)} // odd: not yet present
	decodeInsert := func(insert bool) float64 {
		return testing.AllocsPerRun(50, func() {
			var d Node
			if err := d.UnmarshalPage(leafImg); err != nil {
				t.Fatal(err)
			}
			if insert {
				i, _ := d.searchLeaf(e.Key, e.RID)
				d.insertEntryAt(i, e)
			}
		})
	}
	plain, withInsert := decodeInsert(false), decodeInsert(true)
	t.Logf("%.0f allocations to decode a 200-entry leaf, %.0f with one insert", plain, withInsert)
	if withInsert != plain {
		t.Fatalf("decoding a leaf allocates %.0f objects, %.0f with one insert after; want no more", plain, withInsert)
	}
}

// TestLoaderAddAllocsPerEntry gates the bottom-up load: a new leaf is sized
// like the one it follows, and the highest key reuses its buffer, so
// allocations are a few per leaf, not one or more per entry.
func TestLoaderAddAllocsPerEntry(t *testing.T) {
	_, _, _, tr := newTree(t, false, 0)
	ld := tr.NewLoader(0)
	const n = 50000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = keyOf(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, k := range keys {
		if err := ld.Add(Entry{Key: k, RID: ridOf(i)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if err := ld.Finish(); err != nil {
		t.Fatal(err)
	}
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f allocations per entry", per)
	if per > 0.05 {
		t.Fatalf("Loader.Add allocates %.3f objects/entry, want <= 0.05", per)
	}
}
