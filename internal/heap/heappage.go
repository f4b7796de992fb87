// Package heap implements the data pages of a table: slotted pages of
// records addressed by RID, with logged insert/delete/update operations and
// the sequential scan the index builder uses to extract keys.
//
// Two details of the paper's execution model live here:
//
//   - Record operations expose an under-latch hook so the transaction layer
//     can read the Index_Build flag and the index builder's Current-RID
//     position "while holding the data page latch" (§3.2.1) — the latch is
//     what makes the Target-RID vs Current-RID comparison race-free.
//   - Every data-page log record carries the count of indexes visible to the
//     transaction at the time of the update (§3.1.2), which rollback uses to
//     detect indexes that became visible between forward processing and
//     undo.
//
// RIDs are stable: deleting a record leaves a reusable hole, so a later
// insert may land on the same RID (the paper's §2.2.3 example depends on
// this).
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"onlineindex/internal/page"
	"onlineindex/internal/types"
)

func init() {
	page.Register(page.KindHeap, func() page.Page { return &Page{} })
}

// MaxRecordSize is the largest record a heap page accepts. One record must
// always fit a fresh page with room to spare for the slot directory.
const MaxRecordSize = page.Size - page.HeaderSize - 64

// slotSize is the per-slot directory overhead we budget in the byte
// accounting (length prefix in the marshalled image).
const slotSize = 2

// Page is a slotted heap page. A nil record marks a free (tombstoned or
// never-used) slot; such slots are reused by later inserts, keeping RIDs
// dense and stable.
type Page struct {
	page.Header
	records [][]byte
	used    int // bytes the marshalled image will need
}

// NewPage returns an empty, formatted heap page.
func NewPage() *Page {
	return &Page{used: page.HeaderSize + 2} // header + record count
}

// Kind implements page.Page.
func (p *Page) Kind() page.Kind { return page.KindHeap }

// FreeSpace returns the bytes still available for new records.
func (p *Page) FreeSpace() int { return page.Size - p.used }

// NumSlots returns the size of the slot directory (including free slots).
func (p *Page) NumSlots() int { return len(p.records) }

// NumRecords returns the number of live records.
func (p *Page) NumRecords() int {
	n := 0
	for _, r := range p.records {
		if r != nil {
			n++
		}
	}
	return n
}

// HasRoom reports whether a record of the given size fits.
func (p *Page) HasRoom(recLen int) bool {
	return p.used+slotSize+recLen <= page.Size
}

// Insert places rec in the first acceptable free slot (or a new one) and
// returns its slot number. It fails if the page is full. A non-nil accept
// callback can veto slot reuse — the engine uses it to conditionally lock
// the candidate RID so a slot freed by a still-uncommitted deleter is not
// reused (the deleter's rollback must be able to reinsert at its RID).
func (p *Page) Insert(rec []byte, accept func(types.SlotNum) bool) (types.SlotNum, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("heap: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	if !p.HasRoom(len(rec)) {
		return 0, ErrPageFull
	}
	for i, r := range p.records {
		if r == nil && (accept == nil || accept(types.SlotNum(i))) {
			p.records[i] = cloneBytes(rec)
			p.used += len(rec) // slot dir space already accounted
			return types.SlotNum(i), nil
		}
	}
	if accept != nil && !accept(types.SlotNum(len(p.records))) {
		return 0, ErrPageFull // fresh slot vetoed: caller retries elsewhere
	}
	p.records = append(p.records, cloneBytes(rec))
	p.used += slotSize + len(rec)
	return types.SlotNum(len(p.records) - 1), nil
}

// InsertAt places rec in a specific slot, growing the directory if needed.
// Redo and undo use it to reproduce an exact RID.
func (p *Page) InsertAt(slot types.SlotNum, rec []byte) error {
	for int(slot) >= len(p.records) {
		p.records = append(p.records, nil)
		p.used += slotSize
	}
	if p.records[slot] != nil {
		return fmt.Errorf("heap: slot %d already occupied", slot)
	}
	p.records[slot] = cloneBytes(rec)
	p.used += len(rec)
	return nil
}

// Get returns the record in slot, or nil if the slot is free or absent.
func (p *Page) Get(slot types.SlotNum) []byte {
	if int(slot) >= len(p.records) {
		return nil
	}
	return p.records[slot]
}

// Delete frees the slot and returns the old record.
func (p *Page) Delete(slot types.SlotNum) ([]byte, error) {
	if int(slot) >= len(p.records) || p.records[slot] == nil {
		return nil, fmt.Errorf("heap: delete of empty slot %d", slot)
	}
	old := p.records[slot]
	p.records[slot] = nil
	p.used -= len(old)
	return old, nil
}

// Update replaces the record in slot, returning the old record. It fails if
// the new record does not fit the page.
func (p *Page) Update(slot types.SlotNum, rec []byte) ([]byte, error) {
	if int(slot) >= len(p.records) || p.records[slot] == nil {
		return nil, fmt.Errorf("heap: update of empty slot %d", slot)
	}
	old := p.records[slot]
	if p.used-len(old)+len(rec) > page.Size {
		return nil, ErrPageFull
	}
	p.records[slot] = cloneBytes(rec)
	p.used += len(rec) - len(old)
	return old, nil
}

// ErrPageFull reports that a record does not fit the page.
var ErrPageFull = errors.New("heap: page full")

// MarshalPage implements page.Page.
//
// Image layout after the common header: numSlots uint16, then per slot a
// uint16 length (0xFFFF for a free slot) followed by the record bytes.
func (p *Page) MarshalPage() ([]byte, error) {
	img := make([]byte, page.Size)
	p.MarshalHeader(img, page.KindHeap)
	off := page.HeaderSize
	binary.LittleEndian.PutUint16(img[off:], uint16(len(p.records)))
	off += 2
	for _, r := range p.records {
		if r == nil {
			if off+2 > page.Size {
				return nil, fmt.Errorf("heap: page overflow at %d bytes", off)
			}
			binary.LittleEndian.PutUint16(img[off:], 0xFFFF)
			off += 2
			continue
		}
		if off+2+len(r) > page.Size {
			return nil, fmt.Errorf("heap: page overflow at %d bytes", off)
		}
		binary.LittleEndian.PutUint16(img[off:], uint16(len(r)))
		off += 2
		copy(img[off:], r)
		off += len(r)
	}
	return img, nil
}

// UnmarshalPage implements page.Page. Every record is a 3-index slice of
// one slab copied from the image. Records are never written in place
// (Insert, InsertAt and Update store fresh copies), so the slab is never
// overwritten and a record slice stays valid after its slot changes.
func (p *Page) UnmarshalPage(img []byte) error {
	if _, err := p.UnmarshalHeader(img); err != nil {
		return err
	}
	off := page.HeaderSize
	n := int(binary.LittleEndian.Uint16(img[off:]))
	off += 2
	// Size the slab to the records' extent (a bounds failure is reported
	// by the decode loop below).
	base, end := off, off
	for i := 0; i < n && end+2 <= len(img); i++ {
		if l := int(binary.LittleEndian.Uint16(img[end:])); l == 0xFFFF {
			end += 2
		} else {
			end = min(end+2+l, len(img))
		}
	}
	slab := append([]byte(nil), img[base:end]...)
	p.records = make([][]byte, 0, n)
	p.used = page.HeaderSize + 2
	for i := 0; i < n; i++ {
		if off+2 > len(img) {
			return fmt.Errorf("heap: corrupt page (slot %d)", i)
		}
		l := binary.LittleEndian.Uint16(img[off:])
		off += 2
		p.used += slotSize
		if l == 0xFFFF {
			p.records = append(p.records, nil)
			continue
		}
		if off+int(l) > len(img) {
			return fmt.Errorf("heap: corrupt page (slot %d length %d)", i, l)
		}
		s, e := off-base, off-base+int(l)
		p.records = append(p.records, slab[s:e:e])
		p.used += int(l)
		off += int(l)
	}
	return nil
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	c := make([]byte, len(b))
	copy(c, b)
	return c
}
