package partition

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"onlineindex/internal/catalog"
	"onlineindex/internal/core"
	"onlineindex/internal/engine"
	"onlineindex/internal/progress"
)

// BuildOptions parameterizes a fan-out build. The embedded core.Options
// are handed to every per-shard builder unchanged.
type BuildOptions struct {
	core.Options
	// Serial runs the shard builds sequentially in partition order instead
	// of one goroutine per shard. The deterministic crash sweep needs the
	// single-goroutine I/O order; real builds want the concurrency.
	Serial bool
}

// Result of a completed fan-out build.
type Result struct {
	Index  catalog.PartIndex
	Shards []*core.Result // partition order
	Stats  core.Stats     // per-shard stats summed
}

// Build creates one logical index over a partitioned table by fanning out
// per-shard builds, each reusing the NSF/SF/offline pipeline verbatim, and
// commits the logical index atomically only when every shard completes:
//
//  1. a redo-only PartMeta record registers the logical descriptor in
//     StateBuilding *before* any shard work, so a crash at any later point
//     finds a restartable logical build (FinishPending);
//  2. every shard descriptor is created before any shard scans
//     (startShards), then the shard builds run (parallel or serial), each
//     feeding the shared progress aggregate and its partition.N.progress
//     gauge;
//  3. for unique indexes a completion sweep merges the shard trees and
//     verifies that no committed key lives on two shards — the only class
//     of duplicate the per-shard builders cannot see (unique.go handles
//     the DML-time races; the sweep catches SF capture-phase leftovers);
//  4. one final PartMeta record flips the logical descriptor to
//     StateComplete — the atomic commit point; readers route through the
//     logical name only from here on.
//
// On any shard failure (including a genuine unique violation) every
// already-built shard index is dropped and the logical descriptor is
// removed, leaving the table as if the build never started.
func Build(db *engine.DB, spec engine.CreateIndexSpec, o BuildOptions) (*Result, error) {
	cat := db.Catalog()
	pt, ok := cat.PartTable(spec.Table)
	if !ok {
		return nil, fmt.Errorf("partition: no partitioned table %q", spec.Table)
	}
	if _, exists := cat.PartIndex(spec.Name); exists {
		return nil, fmt.Errorf("partition: index %q exists", spec.Name)
	}
	pi := catalog.PartIndex{
		Name: spec.Name, Table: spec.Table, Columns: spec.Columns,
		Unique: spec.Unique, Method: spec.Method, State: catalog.StateBuilding,
	}
	if err := logPartMeta(db, catalog.EncodePartIndexMeta(&pi)); err != nil {
		return nil, err
	}
	cat.UpsertPartIndex(&pi)
	registerProgressGroup(db, &pi, &pt)

	n := len(pt.Parts)
	results := make([]*core.Result, n)
	errs := make([]error, n)
	started, err := startShards(db, o, spec, &pt)
	if err == nil {
		runShard := func(i int) {
			results[i], errs[i] = started.Run(i)
			if errs[i] == nil {
				setShardProgressGauge(db, i, 10000)
			}
		}
		if o.Serial {
			for i := 0; i < n && err == nil; i++ {
				runShard(i)
				err = errs[i]
			}
		} else {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					runShard(i)
				}(i)
			}
			wg.Wait()
			for _, e := range errs {
				if err == nil {
					err = e
				}
			}
		}
		if cerr := started.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		if terr := abandonBuild(db, &pt, &pi); terr != nil {
			return nil, errors.Join(err, terr)
		}
		return nil, err
	}

	if spec.Unique {
		if err := sweepUnique(db, &pt, &pi); err != nil {
			if terr := abandonBuild(db, &pt, &pi); terr != nil {
				return nil, errors.Join(err, terr)
			}
			return nil, err
		}
	}

	pi.State = catalog.StateComplete
	if err := logPartMeta(db, catalog.EncodePartIndexMeta(&pi)); err != nil {
		return nil, err
	}
	cat.UpsertPartIndex(&pi)

	res := &Result{Index: pi, Shards: results}
	for _, sr := range results {
		if sr != nil {
			addStats(&res.Stats, &sr.Stats)
		}
	}
	res.Stats.Method = spec.Method
	return res, nil
}

// startShards creates the descriptor of every shard index in partition
// order before any shard scans (core.Start). For NSF one transaction
// S-locks every shard table and creates all the descriptors under those
// locks: once any routed transaction can see one shard's index, it sees
// all of them, which the cross-shard unique probe (unique.go) relies on.
func startShards(db *engine.DB, o BuildOptions, spec engine.CreateIndexSpec, pt *catalog.PartTable, shards ...int) (*core.Started, error) {
	if shards == nil {
		for i := range pt.Parts {
			shards = append(shards, i)
		}
	}
	specs := make([]engine.CreateIndexSpec, len(shards))
	opts := make([]core.Options, len(shards))
	for j, i := range shards {
		specs[j], opts[j] = shardSpec(spec, i), shardOpts(db, o, spec.Name, i)
	}
	return core.Start(db, specs, opts)
}

// shardSpec derives shard i's build spec from the logical one.
func shardSpec(spec engine.CreateIndexSpec, i int) engine.CreateIndexSpec {
	return engine.CreateIndexSpec{
		Name:    catalog.PartShardIndexName(spec.Name, i),
		Table:   catalog.PartShardTableName(spec.Table, i),
		Columns: spec.Columns,
		Unique:  spec.Unique,
		Method:  spec.Method,
	}
}

// setShardProgressGauge publishes one shard's build fraction in basis
// points. The gauges are memory-only, so they cannot perturb the
// deterministic fault schedule.
func setShardProgressGauge(db *engine.DB, i int, basisPoints int64) {
	db.Metrics().Gauge(fmt.Sprintf("partition.%d.progress", i)).Set(basisPoints)
}

// shardOpts wraps the user's checkpoint hook so every committed builder
// checkpoint also refreshes the shard's partition.N.progress gauge; the
// coordinator pins it to 10000 when the shard build completes.
func shardOpts(db *engine.DB, o BuildOptions, logical string, i int) core.Options {
	opts := o.Options
	user := o.OnCheckpoint
	shardIx := catalog.PartShardIndexName(logical, i)
	opts.OnCheckpoint = func(ph engine.IBPhase) error {
		if ix, ok := db.Catalog().Index(shardIx); ok {
			frac := db.ProgressOf(ix.ID).Snapshot().Fraction
			setShardProgressGauge(db, i, int64(frac*10000))
		}
		if user != nil {
			return user(ph)
		}
		return nil
	}
	return opts
}

// registerProgressGroup installs the aggregated logical progress view
// (groupSnapshot) under the index's name.
func registerProgressGroup(db *engine.DB, pi *catalog.PartIndex, pt *catalog.PartTable) {
	name, method, n := pi.Name, pi.Method.String(), len(pt.Parts)
	db.RegisterProgressGroup(name, func() progress.Snapshot { return groupSnapshot(db, name, method, n) })
}

// groupSnapshot aggregates the n shard trackers of a fan-out index. It
// resolves them lazily by name, so it is valid before, during and after the
// shard builds; a shard whose index is complete but whose in-memory tracker
// is gone (pre-restart shard) counts as a terminal fraction-1 snapshot.
func groupSnapshot(db *engine.DB, name, method string, n int) progress.Snapshot {
	snaps := make([]progress.Snapshot, 0, n)
	for i := 0; i < n; i++ {
		shardIx := catalog.PartShardIndexName(name, i)
		var s progress.Snapshot
		if ix, ok := db.Catalog().Index(shardIx); ok {
			if tr := db.ProgressOf(ix.ID); tr != nil {
				s = tr.Snapshot()
			} else if ix.State == catalog.StateComplete {
				s = progress.CompleteSnapshot(shardIx, method)
			} else {
				s.Index = shardIx
			}
		}
		snaps = append(snaps, s)
	}
	return progress.Aggregate(name, method, snaps)
}

// abandonBuild tears down a failed fan-out build: cancel in-flight shard
// builds, drop completed shard indexes, remove the logical descriptor. The
// teardown is idempotent and restartable — if a crash interrupts it, the
// logical descriptor is still StateBuilding and FinishPending simply
// rebuilds the missing shards (and re-detects a genuine unique violation).
// Returns the teardown's own error (nil when it completed).
func abandonBuild(db *engine.DB, pt *catalog.PartTable, pi *catalog.PartIndex) error {
	cat := db.Catalog()
	for i := range pt.Parts {
		name := catalog.PartShardIndexName(pi.Name, i)
		ix, ok := cat.Index(name)
		if !ok {
			continue
		}
		var err error
		if ix.State == catalog.StateBuilding {
			err = core.Cancel(db, name)
		} else {
			err = db.DropIndex(name)
		}
		if err != nil {
			return err
		}
	}
	if err := logPartMeta(db, catalog.EncodePartIndexDropMeta(pi.Name)); err != nil {
		return err
	}
	cat.RemovePartIndex(pi.Name)
	db.DropProgressGroup(pi.Name)
	return nil
}

// sweepUnique is the coordinator's completion sweep: a k-way merge over
// the (now complete) shard trees that fails the build if any committed
// live key appears on more than one shard. Entries are verified under the
// read lock protocol, so a concurrent deleter's uncommitted entry is
// waited out rather than miscounted.
func sweepUnique(db *engine.DB, pt *catalog.PartTable, pi *catalog.PartIndex) error {
	tx := db.Begin()
	defer tx.Rollback()
	curs := make([]*engine.IndexCursor, 0, len(pt.Parts))
	for i := range pt.Parts {
		c, err := db.NewIndexCursorRaw(tx, catalog.PartShardIndexName(pi.Name, i), nil, nil)
		if err != nil {
			return err
		}
		curs = append(curs, c)
	}
	m, err := newMergeCursor(curs)
	if err != nil {
		return err
	}
	var prevKey []byte
	var havePrev bool
	for {
		key, rid, ok, err := m.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if havePrev && string(prevKey) == string(key) {
			return &engine.UniqueViolationError{Index: pi.Name, Key: key, Existing: rid}
		}
		prevKey = append(prevKey[:0], key...)
		havePrev = true
	}
}

// FinishPending completes (or re-abandons) every logical fan-out build the
// last incarnation left in StateBuilding. Callers run it after engine
// recovery and core.ResumeAll: per-shard builds have then already resumed
// through the normal per-index machinery, so what remains is coordinator
// work — rebuild shards whose index never got created (the logical
// descriptor stores the full spec), run the unique completion sweep, and
// log the logical completion. Idempotent; a crash anywhere inside simply
// leaves the descriptor StateBuilding for the next incarnation.
func FinishPending(db *engine.DB, o BuildOptions) error {
	cat := db.Catalog()
	for _, pi := range cat.PartIndexes() {
		pt, ok := cat.PartTable(pi.Table)
		if !ok {
			// Torn registration (table meta never committed): drop the
			// orphan descriptor.
			if err := logPartMeta(db, catalog.EncodePartIndexDropMeta(pi.Name)); err != nil {
				return err
			}
			cat.RemovePartIndex(pi.Name)
			continue
		}
		registerProgressGroup(db, &pi, &pt)
		if pi.State != catalog.StateBuilding {
			continue
		}
		spec := engine.CreateIndexSpec{
			Name: pi.Name, Table: pi.Table, Columns: pi.Columns,
			Unique: pi.Unique, Method: pi.Method,
		}
		var missing []int
		for i := range pt.Parts {
			name := catalog.PartShardIndexName(pi.Name, i)
			ix, ok := cat.Index(name)
			if !ok {
				missing = append(missing, i)
				continue
			}
			if ix.State != catalog.StateBuilding {
				continue
			}
			// Caller skipped ResumeAll for this index; resume it here.
			pbs, err := db.PendingBuilds()
			if err != nil {
				return err
			}
			k := slices.IndexFunc(pbs, func(pb engine.PendingBuild) bool { return pb.Index.Name == name })
			if k < 0 {
				return fmt.Errorf("partition: shard index %q building but not resumable", name)
			}
			if _, err := core.Resume(db, pbs[k], o.Options); err != nil {
				return err
			}
		}
		if len(missing) > 0 {
			// Shards that never started (crash before their descriptors
			// committed): start them all, then build each from the stored
			// spec.
			started, err := startShards(db, o, spec, &pt, missing...)
			if err == nil {
				for j := 0; err == nil && j < len(missing); j++ {
					_, err = started.Run(j)
				}
				if cerr := started.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				if terr := abandonBuild(db, &pt, &pi); terr != nil {
					return errors.Join(err, terr)
				}
				return err
			}
		}
		if pi.Unique {
			if err := sweepUnique(db, &pt, &pi); err != nil {
				var uv *engine.UniqueViolationError
				if !errors.As(err, &uv) {
					return err
				}
				// Genuine duplicate across shards: the logical build can
				// never succeed — tear it down and move on, matching the
				// serial build's "abnormally terminated" semantics.
				if terr := abandonBuild(db, &pt, &pi); terr != nil {
					return terr
				}
				continue
			}
		}
		pi.State = catalog.StateComplete
		if err := logPartMeta(db, catalog.EncodePartIndexMeta(&pi)); err != nil {
			return err
		}
		cat.UpsertPartIndex(&pi)
		for i := range pt.Parts {
			setShardProgressGauge(db, i, 10000)
		}
	}
	return nil
}

// Drop removes a complete logical index: every shard index, then the
// logical descriptor.
func Drop(db *engine.DB, name string) error {
	cat := db.Catalog()
	pi, ok := cat.PartIndex(name)
	if !ok {
		return fmt.Errorf("partition: no index %q", name)
	}
	pt, ok := cat.PartTable(pi.Table)
	if ok {
		for i := range pt.Parts {
			shard := catalog.PartShardIndexName(name, i)
			if _, exists := cat.Index(shard); exists {
				if err := db.DropIndex(shard); err != nil {
					return err
				}
			}
		}
	}
	if err := logPartMeta(db, catalog.EncodePartIndexDropMeta(name)); err != nil {
		return err
	}
	cat.RemovePartIndex(name)
	db.DropProgressGroup(name)
	return nil
}

// Progress returns the aggregated logical snapshot for a fan-out index.
func Progress(db *engine.DB, name string) (progress.Snapshot, bool) {
	pi, ok := db.Catalog().PartIndex(name)
	if !ok {
		return progress.Snapshot{}, false
	}
	pt, ok := db.Catalog().PartTable(pi.Table)
	if !ok {
		return progress.Snapshot{}, false
	}
	return groupSnapshot(db, pi.Name, pi.Method.String(), len(pt.Parts)), true
}

// addStats accumulates one shard's build stats into the aggregate.
func addStats(dst, src *core.Stats) {
	dst.PagesScanned += src.PagesScanned
	dst.KeysExtracted += src.KeysExtracted
	dst.KeysInserted += src.KeysInserted
	dst.KeysSkipped += src.KeysSkipped
	dst.SideFileLen += src.SideFileLen
	dst.SideFileApplied += src.SideFileApplied
	dst.Checkpoints += src.Checkpoints
	dst.Runs += src.Runs
	dst.BytesSpilled += src.BytesSpilled
	dst.ScanSort += src.ScanSort
	dst.Insert += src.Insert
	dst.SideFile += src.SideFile
	dst.QuiesceWait += src.QuiesceWait
	dst.GC.Collected += src.GC.Collected
	dst.GC.Skipped += src.GC.Skipped
}
