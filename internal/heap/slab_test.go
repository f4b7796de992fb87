package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"onlineindex/internal/types"
)

// TestPageSlabRecordsSurviveUpdates decodes pages from their images and
// edits them (inserts, updates, deletes) against a slot model. Every record
// slice a page ever handed out must keep its bytes: the decode slab is
// never overwritten.
func TestPageSlabRecordsSurviveUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rec := func() []byte { return []byte(fmt.Sprintf("rec-%0*d", rng.Intn(40), rng.Intn(1000))) }
	p := NewPage()
	var model [][]byte // nil = free slot
	type held struct{ slice, want []byte }
	var handed []held
	hand := func(b []byte) {
		if b != nil {
			handed = append(handed, held{slice: b, want: bytes.Clone(b)})
		}
	}
	for step := 0; step < 4000; step++ {
		slot := types.SlotNum(rng.Intn(len(model) + 1))
		switch {
		case step%300 == 0: // round-trip through a page image
			img, err := p.MarshalPage()
			if err != nil {
				t.Fatal(err)
			}
			p = &Page{}
			if err := p.UnmarshalPage(img); err != nil {
				t.Fatal(err)
			}
			clear(img) // the image is the caller's buffer, free for reuse
			for s := range model {
				hand(p.Get(types.SlotNum(s)))
			}
		case int(slot) < len(model) && model[slot] != nil && rng.Intn(2) == 0: // update
			r := rec()
			old, err := p.Update(slot, r)
			if err == ErrPageFull {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			hand(old)
			model[slot] = r
		case int(slot) < len(model) && model[slot] != nil: // delete
			old, err := p.Delete(slot)
			if err != nil {
				t.Fatal(err)
			}
			hand(old)
			model[slot] = nil
		default: // insert
			r := rec()
			s, err := p.Insert(r, nil)
			if err == ErrPageFull {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for int(s) >= len(model) {
				model = append(model, nil)
			}
			model[s] = r
		}
		for s, want := range model {
			if got := p.Get(types.SlotNum(s)); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("step %d: slot %d = %q, model %q", step, s, got, want)
			}
		}
	}
	for _, h := range handed {
		if !bytes.Equal(h.slice, h.want) {
			t.Fatalf("a handed-out record changed from %q to %q", h.want, h.slice)
		}
	}
}

// TestPageUnmarshalAllocsPerPage gates heap-page decode: one slab per page,
// so the allocation count does not grow with the record count.
func TestPageUnmarshalAllocsPerPage(t *testing.T) {
	allocs := func(records int) float64 {
		p := NewPage()
		for i := 0; i < records; i++ {
			if _, err := p.Insert([]byte(fmt.Sprintf("record-%06d", i)), nil); err != nil {
				t.Fatal(err)
			}
		}
		img, err := p.MarshalPage()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			var d Page
			if err := d.UnmarshalPage(img); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(3), allocs(300)
	if many != few || many > 3 {
		t.Fatalf("decoding a heap page allocates %.0f objects at 3 records, %.0f at 300; want the same small constant", few, many)
	}
}
