package engine

import (
	"onlineindex/internal/enc"
	"onlineindex/internal/heap"
	"onlineindex/internal/readcache"
	"onlineindex/internal/types"
	"onlineindex/internal/zonemap"
)

// readCacheOf returns the index's hash point-lookup cache, creating it on
// first use; nil when the index is gone.
func (db *DB) readCacheOf(id types.IndexID) *readcache.Cache {
	db.mu.Lock()
	defer db.mu.Unlock()
	if rc, ok := db.rcaches[id]; ok {
		return rc
	}
	if _, ok := db.trees[id]; !ok {
		return nil // dropped underneath us; don't resurrect state for it
	}
	rc := readcache.New(0, readcache.MetricsFrom(db.met, "readcache"))
	db.rcaches[id] = rc
	return rc
}

// invalidateKey bumps the cached run of key in index id's cache, if one
// exists. Writers call it while still holding their X key locks, which is
// what makes the fast path's Validate-after-lock protocol sound.
func (db *DB) invalidateKey(id types.IndexID, key []byte) {
	db.mu.Lock()
	rc := db.rcaches[id]
	db.mu.Unlock()
	if rc != nil {
		rc.Invalidate(key)
	}
}

// invalidateKeyByFile is invalidateKey addressed by index file — the undo
// path only has the log record's PageID. treeFiles makes it a constant-time
// lookup; rollback-heavy workloads call this once per undone index record.
func (db *DB) invalidateKeyByFile(f types.FileID, key []byte) {
	db.mu.Lock()
	var rc *readcache.Cache
	if id, ok := db.treeFiles[f]; ok {
		rc = db.rcaches[id]
	}
	db.mu.Unlock()
	if rc != nil {
		rc.Invalidate(key)
	}
}

// zoneMapOf returns the table's zone-map sidecar, or nil if none is
// installed.
func (db *DB) zoneMapOf(id types.TableID) *zonemap.Map {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.zmaps[id]
}

// installZoneMap creates the table's zone map and hooks it into the heap's
// mutation observer. Called wherever a heap is opened (CreateTable and
// recovery).
func (db *DB) installZoneMap(id types.TableID, h *heap.Table) {
	zm := zonemap.New(zonemap.DefaultBlockPages, zonemap.MetricsFrom(db.met, "zonemap"))
	db.mu.Lock()
	db.zmaps[id] = zm
	db.mu.Unlock()
	h.SetObserver(zmObserver{m: zm})
}

// zmObserver adapts heap mutation callbacks (raw record bytes, under the
// page X latch) to zone-map notes (per-column keyenc encodings).
type zmObserver struct{ m *zonemap.Map }

func (o zmObserver) HeapInsert(page types.PageNum, rec []byte) {
	o.m.NoteInsert(page, colSlices(rec), colIsNull)
}

func (o zmObserver) HeapDelete(page types.PageNum, old []byte) {
	o.m.NoteDelete(page, colSlices(old), colIsNull)
}

func (o zmObserver) HeapUpdate(page types.PageNum, old, new []byte) {
	o.m.NoteUpdate(page, colSlices(old), colSlices(new), colIsNull)
}

// colSlices splits an encoded heap record into its per-column keyenc
// encodings without decoding the values (EncodeRow is a count plus
// length-prefixed keyenc blobs, so this is pure slicing). A malformed record
// yields nil columns — the zone map then records the row with no bounds,
// which disables column pruning for the block (conservative, never wrong).
func colSlices(rec []byte) [][]byte {
	r := enc.NewReader(rec)
	n := int(r.U16())
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		b := r.Bytes32()
		if r.Err() != nil {
			return nil
		}
		out = append(out, b)
	}
	return out
}

// colIsNull reports whether a column encoding is the keyenc null (tag 0x00,
// one byte).
func colIsNull(v []byte) bool { return len(v) == 1 && v[0] == 0x00 }
