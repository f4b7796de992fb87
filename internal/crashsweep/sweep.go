// Package crashsweep explores every crash schedule of a scripted index
// build mechanically. A scenario is run once under a counting faultfs to
// enumerate its N fault points, then re-run once per chosen point with a
// fault injected there — a clean crash, a torn crash, or an I/O error —
// followed by ARIES restart recovery, build resume, and a full oracle:
// B-tree structural invariants, index-vs-heap consistency, differential
// equivalence against a freshly built Offline index on the recovered data,
// and WAL-tail validity. The paper argues a failure loses at most one
// checkpoint interval of work (§2.2.3, §3.2.4, §5); this package checks
// that claim at every single I/O operation instead of at hand-picked
// moments.
package crashsweep

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"onlineindex/internal/btree"
	"onlineindex/internal/catalog"
	"onlineindex/internal/core"
	"onlineindex/internal/engine"
	"onlineindex/internal/faultfs"
	"onlineindex/internal/keyenc"
	"onlineindex/internal/partition"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/wal"
)

// Engine sizing shared by every run of a scenario. The pool is small enough
// to force mid-build evictions (more fault points on page files), the tree
// budget small enough for multi-level trees at a few hundred rows.
const (
	poolSize   = 96
	treeBudget = 512
)

// tornEligible confines torn-write injection to files whose formats detect
// and shed a torn tail: the CRC-framed WAL and the length-checkpointed
// external-sort runs. Page files carry no per-page checksums, so a torn
// page write is undetectable by construction and excluded from the fault
// model (see DESIGN.md §6); clean-crash injection still covers every page
// I/O point.
func tornEligible(name string) bool {
	return name == "wal.log" || strings.Contains(name, "-run-")
}

// Config parameterizes a sweep.
type Config struct {
	// Seed drives torn-write cut points and is part of every failure's
	// reproduction recipe.
	Seed int64
	// Stride runs the clean-crash pass at every Stride'th fault point
	// (1 = exhaustive). The final point is always included.
	Stride int
	// TornStride, when > 0, adds a torn-crash pass at every TornStride'th
	// torn-eligible point. The last torn-eligible point is always included.
	TornStride int
	// ErrorStride, when > 0, adds an error-injection pass at every
	// ErrorStride'th point: the op fails with faultfs.ErrInjected, the
	// scenario unwinds (typically cancelling the build), the machine is
	// crashed anyway, and the oracle must still pass — the error path may
	// not corrupt durable state either.
	ErrorStride int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// PointResult describes one faulted run that passed the oracle.
type PointResult struct {
	K    uint64
	Mode faultfs.Mode
	Op   faultfs.Op
	File string
	// Resumed counts builds continued from a committed checkpoint;
	// Rebuilt counts descriptors that had not survived (crash before the
	// descriptor commit was durable, or an injected-error cancel) and were
	// rebuilt from scratch by the oracle.
	Resumed int
	Rebuilt int
	// RedonePages/RedoneKeys measure the work the resumed builds repeated
	// since their last checkpoint — the quantity §2.2.3 bounds by one
	// checkpoint interval.
	RedonePages uint64
	RedoneKeys  uint64
}

// Report is the outcome of sweeping one scenario.
type Report struct {
	Scenario string
	// Points is the scenario's fault-point count N from the count run.
	Points uint64
	// Trace is the count run's op sequence (index k-1 = fault point k).
	Trace []faultfs.Event
	// Results holds one entry per injected fault, all oracle-verified.
	Results []PointResult
}

// Crashes counts results of the given mode.
func (r *Report) Crashes(mode faultfs.Mode) int {
	n := 0
	for _, pr := range r.Results {
		if pr.Mode == mode {
			n++
		}
	}
	return n
}

// Sweep enumerates sc's fault points and injects faults per cfg. Any error
// is annotated with the (scenario, seed, mode, point) tuple that reproduces
// it via Replay.
func Sweep(sc *Scenario, cfg Config) (*Report, error) {
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Count run: enumerate fault points and record the op trace.
	mem := vfs.NewMemFS()
	ffs := faultfs.Wrap(mem, faultfs.Config{Mode: faultfs.ModeCount, Trace: true})
	db, rids, err := openPopulated(ffs, sc)
	if err != nil {
		return nil, fmt.Errorf("crashsweep %s: populate: %w", sc.Name, err)
	}
	ffs.Arm()
	if err := sc.Run(db, rids); err != nil {
		return nil, fmt.Errorf("crashsweep %s: unfaulted run failed: %w", sc.Name, err)
	}
	ffs.Disarm()
	rep := &Report{Scenario: sc.Name, Points: ffs.Points(), Trace: ffs.Trace()}
	if rep.Points == 0 {
		return nil, fmt.Errorf("crashsweep %s: scenario performed no I/O", sc.Name)
	}
	// The unfaulted result must itself pass the oracle, or every faulted
	// verdict is meaningless.
	if err := verifyScenario(db, mem, sc, &PointResult{}); err != nil {
		return nil, fmt.Errorf("crashsweep %s: unfaulted oracle: %w", sc.Name, err)
	}
	logf("%s: %d fault points", sc.Name, rep.Points)

	runPoint := func(mode faultfs.Mode, k uint64) error {
		pr, err := replay(sc, cfg.Seed, mode, k, rep.Trace)
		if err != nil {
			return fmt.Errorf("crashsweep: FAIL (scenario=%s seed=%d mode=%v point=%d): %w",
				sc.Name, cfg.Seed, mode, k, err)
		}
		rep.Results = append(rep.Results, pr)
		return nil
	}

	for k := uint64(1); k <= rep.Points; k += uint64(cfg.Stride) {
		if err := runPoint(faultfs.ModeCrash, k); err != nil {
			return rep, err
		}
	}
	if last := rep.Points; (last-1)%uint64(cfg.Stride) != 0 {
		if err := runPoint(faultfs.ModeCrash, last); err != nil {
			return rep, err
		}
	}
	logf("%s: %d clean crashes verified", sc.Name, rep.Crashes(faultfs.ModeCrash))

	if cfg.TornStride > 0 {
		// Like the clean pass, the torn pass always ends on its last point,
		// however the stride falls: a torn tail of the build's final
		// commit is where a recovery bug in the closing steps shows.
		var eligible []uint64
		for _, ev := range rep.Trace {
			if (ev.Op == faultfs.OpWriteAt || ev.Op == faultfs.OpSync) && tornEligible(ev.Name) {
				eligible = append(eligible, ev.K)
			}
		}
		for i, k := range eligible {
			if i%cfg.TornStride == 0 || i == len(eligible)-1 {
				if err := runPoint(faultfs.ModeTorn, k); err != nil {
					return rep, err
				}
			}
		}
		logf("%s: %d torn crashes verified", sc.Name, rep.Crashes(faultfs.ModeTorn))
	}

	if cfg.ErrorStride > 0 {
		for k := uint64(1); k <= rep.Points; k += uint64(cfg.ErrorStride) {
			if err := runPoint(faultfs.ModeError, k); err != nil {
				return rep, err
			}
		}
		logf("%s: %d injected errors verified", sc.Name, rep.Crashes(faultfs.ModeError))
	}
	return rep, nil
}

// Replay re-runs one faulted point of a scenario — the reproduction path
// for a sweep failure, reachable from the -sweep.point test flag.
func Replay(sc *Scenario, seed int64, mode faultfs.Mode, k uint64) (PointResult, error) {
	return replay(sc, seed, mode, k, nil)
}

// replay performs one faulted run: populate, arm, run until the fault
// fires, recover, resume, verify. A non-nil trace additionally asserts the
// op at point k matches the count run — the determinism check that makes
// (seed, point) a complete reproduction recipe.
func replay(sc *Scenario, seed int64, mode faultfs.Mode, k uint64, trace []faultfs.Event) (PointResult, error) {
	pr := PointResult{K: k, Mode: mode}
	mem := vfs.NewMemFS()
	ffs := faultfs.Wrap(mem, faultfs.Config{Mode: mode, Point: k, Seed: seed, TornOK: tornEligible})
	db, rids, err := openPopulated(ffs, sc)
	if err != nil {
		return pr, fmt.Errorf("populate: %w", err)
	}
	ffs.Arm()
	runErr := sc.Run(db, rids)
	ffs.Disarm()

	ev, fired := ffs.Fired()
	if !fired {
		return pr, fmt.Errorf("fault point %d never fired: this run issued only %d ops — scenario is nondeterministic", k, ffs.Points())
	}
	if trace != nil && ev != trace[k-1] {
		return pr, fmt.Errorf("op at point %d diverged from the count run: got %v, count run did %v — scenario is nondeterministic", k, ev, trace[k-1])
	}
	pr.Op, pr.File = ev.Op, ev.Name

	switch mode {
	case faultfs.ModeCrash, faultfs.ModeTorn:
		if runErr == nil {
			return pr, fmt.Errorf("scenario reported success despite the crash at point %d", k)
		}
	case faultfs.ModeError:
		// The error must unwind without panicking; whether the build
		// cancelled (the usual case) or the scenario absorbed the failure,
		// the durable state it left behind must now survive a crash.
		mem.Crash()
	}

	mem.Recover()
	db2, err := engine.Recover(engine.Config{FS: mem, PoolSize: poolSize, TreeBudget: treeBudget,
		BufferShards: scenarioShards(sc), LockStripes: 1})
	if err != nil {
		return pr, fmt.Errorf("restart recovery: %w", err)
	}
	if err := verifyScenario(db2, mem, sc, &pr); err != nil {
		return pr, err
	}
	return pr, nil
}

// scenarioShards pins the engine's concurrency knobs for a scenario: the
// buffer pool uses the scenario's shard count (default 1) and the lock
// manager always one stripe, so fault-point schedules are a pure function of
// (scenario, seed, point) regardless of the host's core count.
func scenarioShards(sc *Scenario) int {
	if sc.Shards > 0 {
		return sc.Shards
	}
	return 1
}

// openPopulated opens a fresh engine on fs and seeds the "items" table with
// rows fat enough to span multiple pages, then takes a checkpoint so
// recovery has a master record. All of this happens before the harness
// arms, so populate I/O is not part of the fault-point numbering.
func openPopulated(fs vfs.FS, sc *Scenario) (*engine.DB, []types.RID, error) {
	rows := sc.Rows
	db, err := engine.Open(engine.Config{FS: fs, PoolSize: poolSize, TreeBudget: treeBudget,
		BufferShards: scenarioShards(sc), LockStripes: 1})
	if err != nil {
		return nil, nil, err
	}
	var target dml = db
	if sc.Partitions > 0 {
		if _, err := partition.CreateTable(db, "items", sweepSchema(), partition.Spec{
			Partitions: sc.Partitions, Scheme: catalog.SchemeHash, KeyColumn: "id",
		}); err != nil {
			return nil, nil, err
		}
		target = partition.NewRouter(db)
	} else if _, err := db.CreateTable("items", sweepSchema()); err != nil {
		return nil, nil, err
	}
	rids := make([]types.RID, 0, rows)
	const batch = 120
	for i := 0; i < rows; {
		tx := db.Begin()
		for j := 0; j < batch && i < rows; j++ {
			rid, err := target.Insert(tx, "items", sweepRow(int64(i), sweepName(i), int64(i%97)))
			if err != nil {
				return nil, nil, err
			}
			rids = append(rids, rid)
			i++
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, err
		}
	}
	if sc.Setup != nil {
		if err := sc.Setup(db, rids); err != nil {
			return nil, nil, fmt.Errorf("scenario setup: %w", err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		return nil, nil, err
	}
	return db, rids, nil
}

// verifyScenario is the oracle: every index the scenario was building must
// be completable and correct on the recovered database.
func verifyScenario(db *engine.DB, mem *vfs.MemFS, sc *Scenario, pr *PointResult) error {
	if sc.Partitions > 0 {
		return verifyPartScenario(db, mem, sc, pr)
	}
	pending, err := db.PendingBuilds()
	if err != nil {
		return fmt.Errorf("pending builds: %w", err)
	}
	pr.Resumed = len(pending)
	results, err := core.ResumeAll(db, sc.Opts)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	for _, res := range results {
		pr.RedonePages += res.Stats.PagesScanned
		pr.RedoneKeys += res.Stats.KeysInserted
	}

	for _, spec := range sc.Specs {
		if _, ok := db.Catalog().Index(spec.Name); !ok {
			// The descriptor never became durable, or an injected-error
			// cancel dropped it. The build vanished atomically; rebuild
			// offline to prove the recovered table is fully usable.
			pr.Rebuilt++
			ospec := spec
			ospec.Method = catalog.MethodOffline
			if _, err := core.Build(db, ospec, core.Options{}); err != nil {
				return fmt.Errorf("rebuilding vanished index %q: %w", spec.Name, err)
			}
		}
		ix, ok := db.Catalog().Index(spec.Name)
		if !ok {
			return fmt.Errorf("index %q missing after rebuild", spec.Name)
		}
		if ix.State != catalog.StateComplete {
			return fmt.Errorf("index %q in state %v after resume", spec.Name, ix.State)
		}
		// A resumed build's progress report must have ended terminal and
		// monotone: fraction exactly 1, and the live feed never below what a
		// durable checkpoint had already claimed.
		if tr := db.ProgressOf(ix.ID); tr != nil {
			snap := tr.Snapshot()
			if !snap.Complete || snap.Fraction != 1 {
				return fmt.Errorf("index %q progress not terminal after resume: complete=%v fraction=%v",
					spec.Name, snap.Complete, snap.Fraction)
			}
			if snap.Regressions != 0 {
				return fmt.Errorf("index %q progress fell below its durable floor %d times",
					spec.Name, snap.Regressions)
			}
		}
		tree, err := db.TreeOf(ix.ID)
		if err != nil {
			return fmt.Errorf("tree of %q: %w", spec.Name, err)
		}
		if err := btree.CheckInvariants(tree); err != nil {
			return fmt.Errorf("index %q: %w", spec.Name, err)
		}
		if err := db.CheckIndexConsistency(spec.Name); err != nil {
			return err
		}
		if err := differential(db, spec); err != nil {
			return err
		}
	}

	if sc.ReadCheck {
		if err := verifyReads(db, sc); err != nil {
			return fmt.Errorf("read oracle: %w", err)
		}
	}

	// The WAL on disk must be one valid record sequence end to end:
	// recovery truncates any torn tail and its final checkpoint forces the
	// log, so nothing invalid may remain.
	ti, err := wal.VerifyTail(mem)
	if err != nil {
		return fmt.Errorf("wal tail: %w", err)
	}
	if ti.Torn || ti.Valid != ti.Size {
		return fmt.Errorf("wal tail invalid after recovery: %d of %d bytes parse (torn=%v)", ti.Valid, ti.Size, ti.Torn)
	}

	// Post-recovery smoke: the engine must accept new work and keep every
	// index consistent with it.
	tx := db.Begin()
	if _, err := db.Insert(tx, "items", sweepRow(9_999_999, sweepName(9_999_999), 1)); err != nil {
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("post-recovery commit: %w", err)
	}
	for _, spec := range sc.Specs {
		if err := db.CheckIndexConsistency(spec.Name); err != nil {
			return fmt.Errorf("after post-recovery insert: %w", err)
		}
	}
	return nil
}

// differential builds a fresh Offline index over the same columns on the
// recovered data and requires the surviving index to contain exactly the
// same live entries — the recovered build may hold extra pseudo-deleted
// entries (§2.2.2) but must agree on every visible <key, RID> pair.
func differential(db *engine.DB, spec engine.CreateIndexSpec) error {
	ospec := spec
	ospec.Name = "oracle_" + spec.Name
	ospec.Method = catalog.MethodOffline
	if _, err := core.Build(db, ospec, core.Options{}); err != nil {
		return fmt.Errorf("oracle build for %q: %w", spec.Name, err)
	}
	defer db.DropIndex(ospec.Name) //nolint:errcheck // scratch index
	got, err := liveEntries(db, spec.Name)
	if err != nil {
		return err
	}
	want, err := liveEntries(db, ospec.Name)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("index %q has %d live entries, offline oracle has %d", spec.Name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("index %q entry %d = %v, offline oracle has %v", spec.Name, i, got[i], want[i])
		}
	}
	return nil
}

// verifyReads is the ReadCheck half of the oracle: after recovery and
// resume, the read path (fresh, empty hash cache and all-unknown zone maps —
// both are memory-only and did not survive the crash) must serve exactly the
// committed table as derived from the heap itself.
func verifyReads(db *engine.DB, sc *Scenario) error {
	type refRow struct {
		rid  types.RID
		id   int64
		qty  int64
		name string
	}
	var ref []refRow
	if err := db.TableScan("items", func(rid types.RID, row engine.Row) error {
		ref = append(ref, refRow{rid: rid, id: row[0].I, qty: row[2].I, name: row[1].S})
		return nil
	}); err != nil {
		return err
	}
	tx := db.Begin()
	defer tx.Rollback() //nolint:errcheck // read-only: rollback just releases S locks

	// Point lookups: first pass descends the tree and fills the cache, the
	// second must hit it — both must agree with the heap.
	live := make(map[int64]types.RID, len(ref))
	for _, r := range ref {
		live[r.id] = r.rid
	}
	for i := 0; i < len(ref); i += 5 {
		for pass := 0; pass < 2; pass++ {
			got, err := db.IndexLookup(tx, "by_id", keyenc.Int64(ref[i].id))
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != ref[i].rid {
				return fmt.Errorf("by_id lookup %d pass %d = %v, heap says [%v]", ref[i].id, pass, got, ref[i].rid)
			}
		}
	}
	// Every seed id the workload deleted must miss — through whatever
	// pseudo-deleted entries the recovered tree still carries.
	for id := int64(0); id < int64(sc.Rows); id++ {
		if _, ok := live[id]; ok {
			continue
		}
		got, err := db.IndexLookup(tx, "by_id", keyenc.Int64(id))
		if err != nil {
			return err
		}
		if len(got) != 0 {
			return fmt.Errorf("deleted id %d still resolves to %v after recovery", id, got)
		}
	}

	// Ordered scan of by_name: exactly the heap's rows, in key order.
	want := make([][]byte, 0, len(ref))
	for _, r := range ref {
		want = append(want, keyenc.Encode(keyenc.String(r.name)))
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	var got [][]byte
	if err := db.IndexScan(tx, "by_name", nil, nil, func(key []byte, _ types.RID) bool {
		got = append(got, append([]byte(nil), key...))
		return true
	}); err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("by_name scan returned %d entries, heap has %d rows", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("by_name scan entry %d = %x, heap order says %x", i, got[i], want[i])
		}
	}

	// Sequential scan with a qty predicate, twice: the first pass rebuilds
	// zone-map summaries as it goes, the second prunes on them — both must
	// equal the unpruned reference.
	wantRids := map[types.RID]bool{}
	for _, r := range ref {
		if r.qty >= 2 && r.qty <= 5 {
			wantRids[r.rid] = true
		}
	}
	lo, hi := keyenc.Int64(2), keyenc.Int64(5)
	for pass := 0; pass < 2; pass++ {
		seen := map[types.RID]bool{}
		err := db.SeqScan(tx, "items", &engine.Predicate{Col: 2, Lo: &lo, Hi: &hi},
			func(rid types.RID, _ engine.Row) bool {
				seen[rid] = true
				return true
			})
		if err != nil {
			return err
		}
		if len(seen) != len(wantRids) {
			return fmt.Errorf("seqscan pass %d returned %d rows, heap has %d in range", pass, len(seen), len(wantRids))
		}
		for rid := range wantRids {
			if !seen[rid] {
				return fmt.Errorf("seqscan pass %d missed rid %v", pass, rid)
			}
		}
	}
	return nil
}

// liveEntry is a comparable <key, RID> pair.
type liveEntry struct {
	key string
	rid types.RID
}

func (e liveEntry) String() string { return fmt.Sprintf("<%x,%v>", e.key, e.rid) }

func liveEntries(db *engine.DB, index string) ([]liveEntry, error) {
	ix, ok := db.Catalog().Index(index)
	if !ok {
		return nil, fmt.Errorf("no index %q", index)
	}
	tree, err := db.TreeOf(ix.ID)
	if err != nil {
		return nil, err
	}
	var out []liveEntry
	if err := tree.ScanRange(nil, nil, func(e btree.Entry) bool {
		if !e.Pseudo {
			out = append(out, liveEntry{key: string(e.Key), rid: e.RID})
		}
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}
