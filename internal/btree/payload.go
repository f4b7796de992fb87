package btree

import (
	"fmt"

	"onlineindex/internal/enc"
	"onlineindex/internal/types"
)

// EntryPayload is the body of the entry-level log records: TypeIdxInsert,
// TypeIdxInsertNoop, TypeIdxDelete, TypeIdxPseudoDel and TypeIdxReactivate.
//
// For TypeIdxInsert, Pseudo records whether the entry was inserted in the
// pseudo-deleted state (the "tombstone insert" a deleter performs when the
// key it must delete is not in the index yet, §2.2.3). Internal/Child are
// used only for redo-only separator inserts into internal nodes (split
// NTAs). The leaf the record was applied to is in the record header's
// PageID; undo is logical and uses only Key/RID.
type EntryPayload struct {
	Key      []byte
	RID      types.RID
	Pseudo   bool
	Internal bool
	Child    types.PageNum
}

// Encode serializes the payload.
func (p *EntryPayload) Encode() []byte {
	return enc.NewWriter().
		Bytes32(p.Key).RID(p.RID).Bool(p.Pseudo).Bool(p.Internal).U32(uint32(p.Child)).
		Bytes()
}

// DecodeEntry parses an EntryPayload.
func DecodeEntry(b []byte) (EntryPayload, error) {
	r := enc.NewReader(b)
	p := EntryPayload{
		Key: r.Bytes32(), RID: r.RID(), Pseudo: r.Bool(),
		Internal: r.Bool(), Child: types.PageNum(r.U32()),
	}
	return p, r.Err()
}

// MultiInsertPayload is the body of TypeIdxMultiInsert: the NSF index
// builder inserts several keys into one leaf under one log record ("one log
// record for multiple keys would save the pathlength of a log call for each
// key", §2.3.1).
type MultiInsertPayload struct {
	Entries []Entry
}

// Encode serializes the payload.
func (p *MultiInsertPayload) Encode() []byte {
	w := enc.NewWriter().U32(uint32(len(p.Entries)))
	for _, e := range p.Entries {
		w.Bytes32(e.Key).RID(e.RID).Bool(e.Pseudo)
	}
	return w.Bytes()
}

// DecodeMultiInsert parses a MultiInsertPayload.
func DecodeMultiInsert(b []byte) (MultiInsertPayload, error) {
	r := enc.NewReader(b)
	n := int(r.U32())
	p := MultiInsertPayload{}
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Entries = append(p.Entries, Entry{Key: r.Bytes32(), RID: r.RID(), Pseudo: r.Bool()})
	}
	return p, r.Err()
}

// SetRIDPayload is the body of TypeIdxSetRID: in a unique index, when the
// previous holder of a key value is a terminated pseudo-deleted entry, the
// inserter "reset[s] the pseudo-deleted flag in the existing entry and
// replace[s] R with R1" (§2.2.3). Undo restores the old RID in the
// pseudo-deleted state.
type SetRIDPayload struct {
	KeyB   []byte
	OldRID types.RID
	NewRID types.RID
}

// Encode serializes the payload.
func (p *SetRIDPayload) Encode() []byte {
	return enc.NewWriter().Bytes32(p.KeyB).RID(p.OldRID).RID(p.NewRID).Bytes()
}

// DecodeSetRID parses a SetRIDPayload.
func DecodeSetRID(b []byte) (SetRIDPayload, error) {
	r := enc.NewReader(b)
	p := SetRIDPayload{KeyB: r.Bytes32(), OldRID: r.RID(), NewRID: r.RID()}
	return p, r.Err()
}

// encodeContent serializes a node's logical content (compactly, unlike the
// fixed-size page image) for split and format log records. Keys are stored
// in full; the leading flag byte carries the leaf bit and the flagComp
// format tag (the per-page prefix is recomputed on decode, not stored).
func (n *Node) encodeContent(w *enc.Writer) {
	flags := uint8(flagComp)
	if n.leaf {
		flags |= flagLeaf
	}
	w.U8(flags).U32(uint32(n.next))
	if n.leaf {
		w.U32(uint32(len(n.entries)))
		for _, e := range n.entries {
			w.Bytes32(e.Key).RID(e.RID).Bool(e.Pseudo)
		}
		return
	}
	w.U32(uint32(len(n.seps)))
	for _, c := range n.children {
		w.U32(uint32(c))
	}
	for _, s := range n.seps {
		w.Bytes32(s.key).RID(s.rid)
	}
}

// decodeContent restores a node's logical content. Content without the
// flagComp tag is refused with ErrOldFormat.
func decodeContent(r *enc.Reader) (*Node, error) {
	flags := r.U8()
	if r.Err() == nil && flags&flagComp == 0 {
		return nil, ErrOldFormat
	}
	leaf := flags&flagLeaf != 0
	next := types.PageNum(r.U32())
	count := int(r.U32())
	var n *Node
	if leaf {
		n = NewLeaf()
		n.next = next
		for i := 0; i < count && r.Err() == nil; i++ {
			n.entries = append(n.entries, Entry{Key: r.Bytes32(), RID: r.RID(), Pseudo: r.Bool()})
		}
		n.resetPrefix()
	} else {
		children := make([]types.PageNum, 0, count+1)
		for i := 0; i <= count; i++ {
			children = append(children, types.PageNum(r.U32()))
		}
		seps := make([]sep, 0, count)
		for i := 0; i < count && r.Err() == nil; i++ {
			seps = append(seps, sep{key: r.Bytes32(), rid: r.RID()})
		}
		n = NewInternal(children, seps)
		n.next = next
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("btree: corrupt node content: %w", err)
	}
	return n, nil
}

// SplitPayload is the body of TypeIdxSplit. A split is logged as a single
// redo-only record covering the three pages it touches (left, new right,
// parent), which makes the structure modification atomic with respect to
// durability: the WAL protocol guarantees no affected page image reaches
// disk before the record does, so a crash either sees the whole split or
// none of it. Splits are never undone; undo of entry operations is logical.
type SplitPayload struct {
	Left         types.PageNum
	KeepCount    uint32        // entries (or seps) remaining in left
	LeftNext     types.PageNum // left's new right-sibling pointer (leaves)
	Right        types.PageNum
	RightContent []byte // encoded content of the new right node
	Parent       types.PageNum
	SepKey       []byte // separator promoted into the parent
	SepRID       types.RID
}

// Encode serializes the payload.
func (p *SplitPayload) Encode() []byte {
	return enc.NewWriter().
		U32(uint32(p.Left)).U32(p.KeepCount).U32(uint32(p.LeftNext)).
		U32(uint32(p.Right)).Bytes32(p.RightContent).
		U32(uint32(p.Parent)).Bytes32(p.SepKey).RID(p.SepRID).
		Bytes()
}

// DecodeSplit parses a SplitPayload.
func DecodeSplit(b []byte) (SplitPayload, error) {
	r := enc.NewReader(b)
	p := SplitPayload{
		Left:         types.PageNum(r.U32()),
		KeepCount:    r.U32(),
		LeftNext:     types.PageNum(r.U32()),
		Right:        types.PageNum(r.U32()),
		RightContent: r.Bytes32(),
		Parent:       types.PageNum(r.U32()),
		SepKey:       r.Bytes32(),
		SepRID:       r.RID(),
	}
	return p, r.Err()
}

// NewRootPayload is the body of TypeIdxNewRoot: the root grows by copying
// its content into two new children so the root page number never changes
// (ARIES/IM keeps the root anchored). Also redo-only and single-record
// atomic like SplitPayload.
type NewRootPayload struct {
	RootContent []byte // the root's new (internal) content
	Child1      types.PageNum
	C1Content   []byte
	Child2      types.PageNum
	C2Content   []byte
}

// Encode serializes the payload.
func (p *NewRootPayload) Encode() []byte {
	return enc.NewWriter().
		Bytes32(p.RootContent).
		U32(uint32(p.Child1)).Bytes32(p.C1Content).
		U32(uint32(p.Child2)).Bytes32(p.C2Content).
		Bytes()
}

// DecodeNewRoot parses a NewRootPayload.
func DecodeNewRoot(b []byte) (NewRootPayload, error) {
	r := enc.NewReader(b)
	p := NewRootPayload{
		RootContent: r.Bytes32(),
		Child1:      types.PageNum(r.U32()),
		C1Content:   r.Bytes32(),
		Child2:      types.PageNum(r.U32()),
		C2Content:   r.Bytes32(),
	}
	return p, r.Err()
}

// FormatPayload is the body of TypeIdxFormat: format a page as an empty leaf
// or as the given content (index creation and the bottom-up loader's logged
// final state transitions).
type FormatPayload struct {
	Content []byte // encoded node content; empty means "empty leaf"
}

// Encode serializes the payload.
func (p *FormatPayload) Encode() []byte {
	return enc.NewWriter().Bytes32(p.Content).Bytes()
}

// DecodeFormat parses a FormatPayload.
func DecodeFormat(b []byte) (FormatPayload, error) {
	r := enc.NewReader(b)
	p := FormatPayload{Content: r.Bytes32()}
	return p, r.Err()
}
