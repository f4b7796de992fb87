package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/buffer"
	"onlineindex/internal/engine"
	"onlineindex/internal/extsort"
	"onlineindex/internal/heap"
	"onlineindex/internal/lock"
	"onlineindex/internal/rm"
	"onlineindex/internal/sidefile"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/wal"
)

// probeStack is a storage stack of the benchmark's own (file system, log,
// buffer pool of the workload's size), for the ledger stages and probes that
// write: they must not put records the engine never wrote into the engine's
// log.
type probeStack struct {
	fs   vfs.FS
	log  *wal.Log
	pool *buffer.Pool
	tl   *rm.SimpleLogger
}

func (r *run) newProbeStack(name string) (*probeStack, error) {
	osfs, err := vfs.NewOSFS(filepath.Join(r.dataDir, name))
	if err != nil {
		return nil, err
	}
	fs := newTimingFS(osfs, false) // elides fsync, like the engine's stack
	log, err := wal.Open(fs)
	if err != nil {
		return nil, err
	}
	return &probeStack{
		fs: fs, log: log,
		pool: buffer.NewSharded(fs, log, r.reg.PoolSize, 0),
		tl:   &rm.SimpleLogger{L: log, Txn: 1},
	}, nil
}

// sortItem is the external sort's item for an index entry: the key bytes
// followed by the RID, big-endian, so byte order is (key, RID) order.
func sortItem(key []byte, rid types.RID) []byte {
	item := make([]byte, len(key), len(key)+10)
	copy(item, key)
	item = binary.BigEndian.AppendUint32(item, uint32(rid.PageID.File))
	item = binary.BigEndian.AppendUint32(item, uint32(rid.PageID.Page))
	return binary.BigEndian.AppendUint16(item, uint16(rid.Slot))
}

func entryOfItem(item []byte) btree.Entry {
	cut := len(item) - 10
	t := item[cut:]
	return btree.Entry{
		Key: append([]byte(nil), item[:cut]...),
		RID: types.RID{
			PageID: types.PageID{File: types.FileID(binary.BigEndian.Uint32(t[0:4])), Page: types.PageNum(binary.BigEndian.Uint32(t[4:8]))},
			Slot:   types.SlotNum(binary.BigEndian.Uint16(t[8:10])),
		},
	}
}

// ledger walks the SF build's path one stage at a time over the same
// populated table, each stage driven through its layer's exported functions
// and timed as a span: heap scan -> key extraction -> run generation ->
// merge -> bottom-up load. The stages' sum over the untraced quiet SF build
// time is core.ledger_coverage. Then come the NSF-side insert path and the
// single-layer probes.
func (r *run) ledger() error {
	phase := r.rec.start("ledger", r.root)
	defer func() { r.rec.end(phase, nil) }()
	m := r.metrics
	stage := func(name string, rows int, fn func() error) (time.Duration, error) {
		sp := r.rec.start(name, phase)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		r.rec.end(sp, map[string]float64{"rows": float64(rows)})
		return d, err
	}
	if err := r.settle(); err != nil {
		return err
	}
	eng := r.db.Engine()
	tbl, ok := eng.Catalog().Table(tableName)
	if !ok {
		return fmt.Errorf("ledger: no table %q", tableName)
	}
	heapTbl, err := eng.HeapOf(tbl.ID)
	if err != nil {
		return err
	}
	pages, err := heapTbl.PageCount()
	if err != nil {
		return err
	}
	ix := r.lastIndex // a dropped index's descriptor still says which columns make the key

	// Stage 1: heap scan, the builder's page-at-a-time read under the S latch.
	batches := make([]heap.PageBatch, 0, pages)
	rows := 0
	scanDur, err := stage("ledger:heap_scan", 0, func() error {
		for pg := types.PageNum(0); pg < pages; pg++ {
			b, err := heapTbl.ReadPageBatch(pg, nil)
			if err != nil {
				return err
			}
			rows += b.Len()
			batches = append(batches, b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["heap.pages"] = float64(pages)
	m["heap.scan_ms"] = ms(scanDur)
	m["heap.scan_pages_per_s"] = ratio(float64(pages), scanDur.Seconds())

	// Stage 2: key extraction and sort-item assembly, as the scan pipeline
	// does per record.
	items := make([][]byte, 0, rows)
	var keyBytes int
	extractDur, err := stage("ledger:key_extract", rows, func() error {
		var scratch []byte
		for i := range batches {
			b := &batches[i]
			for j := 0; j < b.Len(); j++ {
				key, err := engine.AppendIndexKeyFromRecord(scratch[:0], &ix, b.Rec(j))
				if err != nil {
					return err
				}
				scratch = key[:0]
				keyBytes += len(key)
				items = append(items, sortItem(key, b.RID(j)))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	batches = nil //nolint:ineffassign,wastedassign // release the page copies before the sort allocates
	m["keyenc.extract_ns_per_row"] = ratio(float64(extractDur.Nanoseconds()), float64(rows))
	m["keyenc.key_bytes_mean"] = ratio(float64(keyBytes), float64(rows))

	ps, err := r.newProbeStack("ledger")
	if err != nil {
		return err
	}
	defer ps.pool.Close() //nolint:errcheck // scratch stack

	// Stage 3: run generation by replacement selection, spilling to runs.
	capacity := r.reg.SortMemory
	if capacity == 0 {
		capacity = 4096 // core.Options' default
	}
	var runs []extsort.RunMeta
	rungenDur, err := stage("ledger:run_generation", rows, func() error {
		sorter := extsort.NewSorter(ps.fs, "ledger", capacity)
		for _, it := range items {
			if err := sorter.AddOwned(it); err != nil {
				return err
			}
		}
		var err error
		runs, err = sorter.Finish()
		return err
	})
	if err != nil {
		return err
	}
	items = nil //nolint:ineffassign,wastedassign // the sorter owned them
	m["extsort.rungen_ms"] = ms(rungenDur)
	m["extsort.rungen_ns_per_row"] = ratio(float64(rungenDur.Nanoseconds()), float64(rows))

	// Stage 4: k-way merge, draining Merger.Next into index entries.
	entries := make([]btree.Entry, 0, rows)
	mergeDur, err := stage("ledger:merge", rows, func() error {
		mg, err := extsort.NewMerger(ps.fs, runs, nil)
		if err != nil {
			return err
		}
		defer mg.Close()
		for {
			item, _, ok, err := mg.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			entries = append(entries, entryOfItem(item))
		}
	})
	if err != nil {
		return err
	}
	m["extsort.merge_ms"] = ms(mergeDur)
	m["extsort.merge_ns_per_row"] = ratio(float64(mergeDur.Nanoseconds()), float64(rows))

	// Stage 5: bottom-up load and the flush that ends the SF load phase.
	const loadedFile, ibFile, sideFile = types.FileID(1), types.FileID(2), types.FileID(3)
	var loaded *btree.Tree
	loadDur, err := stage("ledger:load", rows, func() error {
		var err error
		loaded, err = btree.Create(ps.pool, loadedFile, btree.Config{}, ps.tl)
		if err != nil {
			return err
		}
		ld := loaded.NewLoader(0) // 0: the default fill the builds use
		for _, e := range entries {
			if err := ld.Add(e); err != nil {
				return err
			}
		}
		if err := ld.Finish(); err != nil {
			return err
		}
		return ps.pool.FlushFile(loadedFile)
	})
	if err != nil {
		return err
	}
	m["btree.load_ms"] = ms(loadDur)
	m["btree.load_ns_per_row"] = ratio(float64(loadDur.Nanoseconds()), float64(rows))
	staged := scanDur + extractDur + rungenDur + mergeDur + loadDur
	m["core.ledger_coverage"] = ratio(staged.Seconds(), r.quietSF.Seconds())
	r.notef("ledger: scan %.0f + extract %.0f + rungen %.0f + merge %.0f + load %.0f = %.0f ms staged vs %.0f ms untraced quiet SF build",
		ms(scanDur), ms(extractDur), ms(rungenDur), ms(mergeDur), ms(loadDur), ms(staged), ms(r.quietSF))

	// The NSF builder's insert path: sorted batches of 64 through the tree's
	// top, logged.
	ibDur, err := stage("ledger:ib_insert", rows, func() error {
		tree, err := btree.Create(ps.pool, ibFile, btree.Config{}, ps.tl)
		if err != nil {
			return err
		}
		var cur btree.IBCursor
		for i := 0; i < len(entries); i += 64 {
			if _, _, _, err := tree.IBInsertBatch(ps.tl, entries[i:min(i+64, len(entries))], &cur); err != nil {
				return err
			}
		}
		return ps.pool.FlushFile(ibFile)
	})
	if err != nil {
		return err
	}
	m["btree.ib_insert_ns_per_row"] = ratio(float64(ibDur.Nanoseconds()), float64(rows))

	if err := r.probes(phase, ps, loaded, entries, sideFile); err != nil {
		return err
	}

	// The roofline: reading the heap once and writing the index once at the
	// sequential rates just probed, over the untraced quiet SF build time.
	const pageSize = 8192
	treePages, err := loaded.PageCount()
	if err != nil {
		return err
	}
	floor := ratio(float64(pages)*pageSize/1e6, m["vfs.seq_read_mb_per_s"]) +
		ratio(float64(treePages)*pageSize/1e6, m["vfs.seq_write_mb_per_s"])
	m["core.roofline_frac"] = ratio(floor, r.quietSF.Seconds())
	return nil
}

// probes times single operations of each layer on the probe stack. Every
// probe is a span under the ledger's.
func (r *run) probes(parent *span, ps *probeStack, tree *btree.Tree, entries []btree.Entry, sideFile types.FileID) error {
	m := r.metrics
	rng := rand.New(rand.NewSource(r.seed ^ 0x9e0b))
	n := min(2000, len(entries))
	// perOp runs fn count times inside one span and returns the mean time.
	perOp := func(name string, count int, fn func(i int) error) (time.Duration, error) {
		sp := r.rec.start("probe:"+name, parent)
		t0 := time.Now()
		for i := 0; i < count; i++ {
			if err := fn(i); err != nil {
				r.rec.end(sp, nil)
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
		}
		d := time.Since(t0)
		r.rec.end(sp, map[string]float64{"ops": float64(count)})
		return d / time.Duration(max(1, count)), nil
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	// btree: transaction-side single-key operations on the loaded tree.
	pick := make([]btree.Entry, n)
	for i := range pick {
		e := entries[rng.Intn(len(entries))]
		pick[i] = btree.Entry{Key: append(append([]byte(nil), e.Key...), 'x'), RID: e.RID}
	}
	d, err := perOp("btree.txn_insert", n, func(i int) error {
		_, _, err := tree.TxnInsert(ps.tl, pick[i].Key, pick[i].RID)
		return err
	})
	if err != nil {
		return err
	}
	m["btree.txn_insert_us"] = us(d)
	d, err = perOp("btree.pseudo_delete", n, func(i int) error {
		_, err := tree.TxnPseudoDelete(ps.tl, pick[i].Key, pick[i].RID)
		return err
	})
	if err != nil {
		return err
	}
	m["btree.pseudo_delete_us"] = us(d)
	d, err = perOp("btree.lookup", n, func(int) error {
		e := entries[rng.Intn(len(entries))]
		rids, err := tree.Lookup(e.Key)
		if err == nil && len(rids) == 0 {
			err = fmt.Errorf("loaded key not found")
		}
		return err
	})
	if err != nil {
		return err
	}
	m["btree.lookup_us"] = us(d)

	// sidefile: appends as a transaction behind the scan makes them.
	sf, err := sidefile.Create(ps.pool, sideFile, ps.tl)
	if err != nil {
		return err
	}
	d, err = perOp("sidefile.append", n, func(i int) error {
		_, err := sf.Append(ps.tl, sidefile.Entry{Op: sidefile.OpInsert, Key: pick[i].Key, RID: pick[i].RID})
		return err
	})
	if err != nil {
		return err
	}
	m["sidefile.append_us"] = us(d)

	// wal: append alone, then append and force.
	payload := make([]byte, 64)
	rec := func() *wal.Record {
		return &wal.Record{Type: wal.TypeIdxInsert, Flags: wal.FlagRedo, TxnID: 1, Payload: payload}
	}
	d, err = perOp("wal.append", 20*n, func(int) error {
		_, err := ps.log.Append(rec())
		return err
	})
	if err != nil {
		return err
	}
	m["wal.append_ns"] = float64(d.Nanoseconds())
	d, err = perOp("wal.force", n/4, func(int) error {
		lsn, err := ps.log.Append(rec())
		if err != nil {
			return err
		}
		return ps.log.Force(lsn)
	})
	if err != nil {
		return err
	}
	m["wal.force_us"] = us(d)

	// buffer: a resident page again and again, then a fresh pool of the same
	// size touching each page of the loaded tree for the first time.
	hot := types.PageID{File: tree.FileID(), Page: 0}
	d, err = perOp("buffer.fetch_hit", 50*n, func(int) error {
		f, err := ps.pool.Fetch(hot)
		if err == nil {
			ps.pool.Unpin(f)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["buffer.fetch_hit_ns"] = float64(d.Nanoseconds())
	if err := ps.pool.FlushFile(tree.FileID()); err != nil {
		return err
	}
	cold := buffer.NewSharded(ps.fs, ps.log, r.reg.PoolSize, 0)
	if err := cold.OpenFile(tree.FileID()); err != nil {
		return err
	}
	treePages, err := cold.PageCount(tree.FileID())
	if err != nil {
		return err
	}
	d, err = perOp("buffer.fetch_miss", min(n, int(treePages)), func(i int) error {
		f, err := cold.Fetch(types.PageID{File: tree.FileID(), Page: types.PageNum(i)}) //nolint:gosec // i < treePages
		if err == nil {
			cold.Unpin(f)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["buffer.fetch_miss_us"] = us(d)

	// lock: uncontended record locks, released in transaction-sized groups.
	lm := lock.NewManager()
	d, err = perOp("lock.acquire", 50*n, func(i int) error {
		txn := types.TxnID(1 + i/64) //nolint:gosec // small
		if i%64 == 0 && i > 0 {
			lm.ReleaseAll(txn - 1)
		}
		return lm.Lock(txn, lock.RecordName(entries[i%len(entries)].RID), lock.S)
	})
	if err != nil {
		return err
	}
	m["lock.acquire_ns"] = float64(d.Nanoseconds())

	return r.vfsProbes(parent, ps.fs, rng)
}

// vfsProbes times the file system alone: 32 MiB written and read back in
// page-sized sequential calls, then page-sized reads at random offsets.
func (r *run) vfsProbes(parent *span, fs vfs.FS, rng *rand.Rand) error {
	const pageSize, filePages = 8192, 4096
	pagesN := filePages
	if r.scale < 1 {
		pagesN = max(64, int(float64(filePages)*r.scale))
	}
	f, err := fs.Create("probe.dat")
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // scratch file
	buf := make([]byte, pageSize)
	rng.Read(buf)
	timed := func(name string, fn func() error) (time.Duration, error) {
		sp := r.rec.start("probe:"+name, parent)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		r.rec.end(sp, map[string]float64{"bytes": float64(pagesN * pageSize)})
		return d, err
	}
	mb := float64(pagesN*pageSize) / 1e6
	d, err := timed("vfs.seq_write", func() error {
		for i := 0; i < pagesN; i++ {
			if _, err := f.WriteAt(buf, int64(i)*pageSize); err != nil {
				return err
			}
		}
		return f.Sync()
	})
	if err != nil {
		return err
	}
	r.metrics["vfs.seq_write_mb_per_s"] = ratio(mb, d.Seconds())
	d, err = timed("vfs.seq_read", func() error {
		for i := 0; i < pagesN; i++ {
			if _, err := f.ReadAt(buf, int64(i)*pageSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["vfs.seq_read_mb_per_s"] = ratio(mb, d.Seconds())
	const randReads = 4000
	d, err = timed("vfs.rand_read", func() error {
		for i := 0; i < randReads; i++ {
			if _, err := f.ReadAt(buf, int64(rng.Intn(pagesN))*pageSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["vfs.rand_read_us"] = float64(d.Nanoseconds()) / 1e3 / randReads
	return nil
}
