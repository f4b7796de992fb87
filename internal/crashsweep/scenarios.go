package crashsweep

import (
	"errors"
	"fmt"
	"strings"

	"onlineindex/internal/catalog"
	"onlineindex/internal/core"
	"onlineindex/internal/engine"
	"onlineindex/internal/keyenc"
	"onlineindex/internal/partition"
	"onlineindex/internal/txn"
	"onlineindex/internal/types"
)

// Scenario is one scripted build-plus-workload whose crash schedule the
// sweep explores. Run must be deterministic: single-goroutine, no
// wall-clock or map-iteration dependence, so the i'th I/O operation of
// every execution is the same operation. The sweep verifies this by
// comparing each faulted run's operation at point k against the count run's
// trace.
type Scenario struct {
	Name string
	// Rows seeds the "items" table before the harness arms fault counting.
	Rows int
	// Opts are the build options. Resume after a crash reuses them with the
	// DML hook stripped: a new incarnation of the system does not replay the
	// interleaved workload, it only finishes the build.
	Opts core.Options
	// Specs are the indexes Run creates, which the oracle verifies.
	Specs []engine.CreateIndexSpec
	// Setup, when set, runs after the seed rows are committed but before the
	// harness arms fault counting — state the scenario treats as
	// pre-existing (a complete index to read during the build, say). Its
	// I/O is not part of the fault-point numbering.
	Setup func(db *engine.DB, rids []types.RID) error
	// Run performs the faulted section. rids are the seed rows' RIDs in
	// insert order.
	Run func(db *engine.DB, rids []types.RID) error
	// ReadCheck extends the post-recovery oracle with the read-path
	// assertions: point lookups (tree and hash passes) against a
	// heap-derived reference, ordered index scans, and pruned-vs-full
	// sequential scan equivalence. Only meaningful for scenarios whose
	// Setup pre-built the by_id index readers use.
	ReadCheck bool
	// Shards is the buffer pool's page-table shard count (0 means 1, the
	// historical single-shard pool). Scenarios stay single-goroutine either
	// way; a multi-shard scenario exercises the sharded fetch/eviction paths
	// under the sweep, which stays deterministic because the shard hash is a
	// fixed function of the page ID. The lock manager is always 1 stripe.
	Shards int
	// Partitions, when > 0, hash-partitions the "items" table on "id" into
	// that many shards: the seed rows and the observer's DML route through a
	// partition.Router, Run drives the fan-out coordinator (in Serial mode,
	// so the shard order is fixed), and the oracle switches to the
	// partition-aware verifyPartScenario. Routing is FNV over the encoded
	// key — a fixed function — so determinism is preserved.
	Partitions int
}

// Table schema shared by all scenarios: id (unique by construction),
// a padded name (fat records keep the page count realistic at small row
// counts), and a low-cardinality qty.
func sweepSchema() catalog.Schema {
	return catalog.Schema{
		{Name: "id", Kind: keyenc.KindInt64},
		{Name: "name", Kind: keyenc.KindString},
		{Name: "qty", Kind: keyenc.KindInt64},
	}
}

func sweepRow(id int64, name string, qty int64) engine.Row {
	return engine.Row{keyenc.Int64(id), keyenc.String(name), keyenc.Int64(qty)}
}

func sweepName(i int) string {
	return fmt.Sprintf("name-%06d-%s", i, strings.Repeat("x", 80))
}

// dml is the write surface the observer drives. Both *engine.DB (the
// legacy single-heap scenarios) and *partition.Router (part2) satisfy it,
// so the same scripted workload exercises either topology.
type dml interface {
	Begin() *txn.Txn
	Insert(tx *txn.Txn, table string, row engine.Row) (types.RID, error)
	Update(tx *txn.Txn, table string, rid types.RID, row engine.Row) (types.RID, error)
	Delete(tx *txn.Txn, table string, rid types.RID) error
}

// observer returns an OnCheckpoint hook that runs one scripted transaction
// after every builder checkpoint: an insert of a fresh row, an update and a
// delete of seed rows. Targets are chosen by fixed arithmetic on the
// checkpoint ordinal, and the closure tracks row movement, so the DML
// stream is a pure function of the checkpoint sequence — which is exactly
// what (seed, point) reproducibility requires. During an SF scan this
// generates behind-Current-RID updates (applied directly) and ahead-of-it
// ones (captured in the side-file); during load and catch-up, every change
// lands in the side-file, growing the tail the drain must chase (§3.2.3).
func observer(db dml, rids []types.RID) func(engine.IBPhase) error {
	n := 0
	cur := append([]types.RID(nil), rids...) // current RID of each live seed row
	live := make([]bool, len(rids))
	for i := range live {
		live[i] = true
	}
	pick := func(start int) int {
		for i := 0; i < len(live); i++ {
			j := (start + i) % len(live)
			if live[j] {
				return j
			}
		}
		return -1
	}
	return func(engine.IBPhase) error {
		n++
		tx := db.Begin()
		if _, err := db.Insert(tx, "items", sweepRow(int64(1_000_000+n), sweepName(1_000_000+n), int64(n))); err != nil {
			tx.Rollback() //nolint:errcheck
			return err
		}
		if u := pick(7 * n); u >= 0 {
			rid, err := db.Update(tx, "items", cur[u], sweepRow(int64(2_000_000+n), fmt.Sprintf("upd-%06d-%s", n, strings.Repeat("y", 80)), int64(n%7)))
			if err != nil {
				tx.Rollback() //nolint:errcheck
				return err
			}
			cur[u] = rid
		}
		if d := pick(11*n + 3); d >= 0 {
			if err := db.Delete(tx, "items", cur[d]); err != nil {
				tx.Rollback() //nolint:errcheck
				return err
			}
			live[d] = false
		}
		if err := tx.Commit(); err != nil {
			// A commit whose log force fails poisons itself to aborted
			// (undo, lock release, active-table removal all happen inside
			// Commit), so there is no zombie to clean up here — just
			// surface the error and let the incarnation unwind.
			return err
		}
		return nil
	}
}

// shadowRow is the readObserver's record of one committed row.
type shadowRow struct {
	rid  types.RID
	id   int64
	qty  int64
	live bool
}

// readObserver is observer with a reader bolted on: the same shape of
// scripted DML each checkpoint, now mirrored into a shadow of the table,
// followed by reads — point lookups on the pre-built by_id index (twice, so
// the second pass exercises the hash fast path), a lookup of the most
// recently deleted id (must miss through its pseudo-deleted entry), an
// unreadability probe of the index being built, and every third step a
// zone-mapped sequential scan — each checked against the shadow at its
// commit point. Everything runs on the builder goroutine, so the I/O
// schedule stays a pure function of the checkpoint sequence; a hash-cache
// hit legitimately does less I/O than a tree descent, deterministically so.
func readObserver(db *engine.DB, rids []types.RID, building string) func(engine.IBPhase) error {
	n := 0
	rows := make([]shadowRow, len(rids))
	for i, rid := range rids {
		rows[i] = shadowRow{rid: rid, id: int64(i), qty: int64(i % 97), live: true}
	}
	lastDeleted := int64(-1)
	pick := func(start int) int {
		for i := 0; i < len(rows); i++ {
			j := (start + i) % len(rows)
			if rows[j].live {
				return j
			}
		}
		return -1
	}
	return func(engine.IBPhase) error {
		n++
		tx := db.Begin()
		insID := int64(1_000_000 + n)
		insRID, err := db.Insert(tx, "items", sweepRow(insID, sweepName(1_000_000+n), int64(n)))
		if err != nil {
			tx.Rollback() //nolint:errcheck
			return err
		}
		upd, del := -1, -1
		updID := int64(2_000_000 + n)
		var updRID types.RID
		if u := pick(7 * n); u >= 0 {
			updRID, err = db.Update(tx, "items", rows[u].rid,
				sweepRow(updID, fmt.Sprintf("upd-%06d-%s", n, strings.Repeat("y", 80)), int64(n%7)))
			if err != nil {
				tx.Rollback() //nolint:errcheck
				return err
			}
			upd = u
		}
		if d := pick(11*n + 3); d >= 0 && d != upd {
			if err := db.Delete(tx, "items", rows[d].rid); err != nil {
				tx.Rollback() //nolint:errcheck
				return err
			}
			del = d
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		rows = append(rows, shadowRow{rid: insRID, id: insID, qty: int64(n), live: true})
		if upd >= 0 {
			rows[upd].rid, rows[upd].id, rows[upd].qty = updRID, updID, int64(n%7)
		}
		if del >= 0 {
			lastDeleted = rows[del].id
			rows[del].live = false
		}

		rtx := db.Begin()
		err = func() error {
			if j := pick(5 * n); j >= 0 {
				for pass := 0; pass < 2; pass++ {
					got, err := db.IndexLookup(rtx, "by_id", keyenc.Int64(rows[j].id))
					if err != nil {
						return err
					}
					if len(got) != 1 || got[0] != rows[j].rid {
						return fmt.Errorf("readpath step %d: by_id lookup %d pass %d = %v, want [%v]",
							n, rows[j].id, pass, got, rows[j].rid)
					}
				}
			}
			if lastDeleted >= 0 {
				for pass := 0; pass < 2; pass++ {
					got, err := db.IndexLookup(rtx, "by_id", keyenc.Int64(lastDeleted))
					if err != nil {
						return err
					}
					if len(got) != 0 {
						return fmt.Errorf("readpath step %d: deleted id %d pass %d still resolves to %v",
							n, lastDeleted, pass, got)
					}
				}
			}
			var notReadable *engine.ErrIndexNotReadable
			if _, err := db.IndexLookup(rtx, building, keyenc.String("x")); !errors.As(err, &notReadable) {
				return fmt.Errorf("readpath step %d: lookup of building index %q: err = %v, want ErrIndexNotReadable",
					n, building, err)
			}
			if n%3 == 0 {
				lo, hi := keyenc.Int64(2), keyenc.Int64(5)
				want := map[types.RID]bool{}
				for _, r := range rows {
					if r.live && r.qty >= 2 && r.qty <= 5 {
						want[r.rid] = true
					}
				}
				got := map[types.RID]bool{}
				err := db.SeqScan(rtx, "items", &engine.Predicate{Col: 2, Lo: &lo, Hi: &hi},
					func(rid types.RID, _ engine.Row) bool {
						got[rid] = true
						return true
					})
				if err != nil {
					return err
				}
				if len(got) != len(want) {
					return fmt.Errorf("readpath step %d: seqscan returned %d rows, shadow has %d in qty range",
						n, len(got), len(want))
				}
				for rid := range want {
					if !got[rid] {
						return fmt.Errorf("readpath step %d: seqscan missed rid %v", n, rid)
					}
				}
			}
			return nil
		}()
		if rbErr := rtx.Rollback(); err == nil {
			err = rbErr
		}
		return err
	}
}

func nameSpec(name string, method catalog.BuildMethod) engine.CreateIndexSpec {
	return engine.CreateIndexSpec{Name: name, Table: "items", Columns: []string{"name"}, Method: method}
}

// Scenarios returns the sweep's scenario set: the paper's two online
// algorithms, the single-scan multi-index variant (§6.2), and an external
// sort stressed into many runs (§5) under a unique index (§2.2).
func Scenarios() []*Scenario {
	nsfOpts := core.Options{SortMemory: 64, CheckpointPages: 2, CheckpointKeys: 40, BatchSize: 32}
	sfOpts := core.Options{SortMemory: 64, CheckpointPages: 2, CheckpointKeys: 40}
	multiOpts := core.Options{SortMemory: 64, CheckpointKeys: 40, SerialFinish: true}
	sortOpts := core.Options{SortMemory: 4, CheckpointPages: 2, CheckpointKeys: 64, BatchSize: 16}
	// A unique SF index over several runs: a (qty, id) key is out of heap
	// order, so SortMemory 24 cuts the scan into several runs, and the load
	// runs the held-back unique loop, whose checkpoints record the merge
	// position from before the held-back entry (a repositioned multi-run
	// counter vector). id is unique, so the build never fails on a
	// duplicate.
	sortparOpts := core.Options{SortMemory: 24, CheckpointPages: 2, CheckpointKeys: 48}
	sortparSpec := engine.CreateIndexSpec{Name: "by_qty_id", Table: "items",
		Columns: []string{"qty", "id"}, Unique: true, Method: catalog.MethodSF}
	// Prefix compression under run pressure: a (qty, name) key is out of
	// heap order, so SortMemory 16 cuts the scan into many prefix-delta
	// runs whose neighbours share the qty and the long "name-..." prefix.
	// Checkpoints land mid delta chain in more than one run and on loader
	// states over prefix-truncated pages. (A name-only key arrives in heap
	// order and sorts into one run at any SortMemory, so it would replay
	// the sf trace byte for byte.)
	compressOpts := core.Options{SortMemory: 16, CheckpointPages: 2, CheckpointKeys: 40}
	compressSpec := engine.CreateIndexSpec{Name: "by_qty_name", Table: "items",
		Columns: []string{"qty", "name"}, Method: catalog.MethodSF}

	return []*Scenario{
		{
			Name:  "nsf",
			Rows:  360,
			Opts:  nsfOpts,
			Specs: []engine.CreateIndexSpec{nameSpec("by_name", catalog.MethodNSF)},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := nsfOpts
				opts.OnCheckpoint = observer(db, rids)
				_, err := core.Build(db, nameSpec("by_name", catalog.MethodNSF), opts)
				return err
			},
		},
		{
			// The SF build over prefix-delta runs and prefix-truncated
			// pages: a crash can land mid delta chain in a run, between a
			// checkpoint and its run truncation, or mid load, and resume
			// must continue each chain from its durable RunMeta.High.
			Name:  "sf",
			Rows:  360,
			Opts:  sfOpts,
			Specs: []engine.CreateIndexSpec{nameSpec("by_name", catalog.MethodSF)},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := sfOpts
				opts.OnCheckpoint = observer(db, rids)
				_, err := core.Build(db, nameSpec("by_name", catalog.MethodSF), opts)
				return err
			},
		},
		{
			Name: "multi",
			Rows: 300,
			Opts: multiOpts,
			Specs: []engine.CreateIndexSpec{
				nameSpec("by_name", catalog.MethodSF),
				{Name: "by_qty", Table: "items", Columns: []string{"qty"}, Method: catalog.MethodSF},
			},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := multiOpts
				opts.OnCheckpoint = observer(db, rids)
				_, err := core.BuildMany(db, []engine.CreateIndexSpec{
					nameSpec("by_name", catalog.MethodSF),
					{Name: "by_qty", Table: "items", Columns: []string{"qty"}, Method: catalog.MethodSF},
				}, opts)
				return err
			},
		},
		{
			Name:  "sortpar",
			Rows:  320,
			Opts:  sortparOpts,
			Specs: []engine.CreateIndexSpec{sortparSpec},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := sortparOpts
				opts.OnCheckpoint = observer(db, rids)
				_, err := core.Build(db, sortparSpec, opts)
				return err
			},
		},
		{
			Name: "extsort",
			Rows: 420,
			Opts: sortOpts,
			Specs: []engine.CreateIndexSpec{
				{Name: "by_id", Table: "items", Columns: []string{"id"}, Unique: true, Method: catalog.MethodNSF},
			},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := sortOpts
				opts.OnCheckpoint = observer(db, rids)
				_, err := core.Build(db, engine.CreateIndexSpec{
					Name: "by_id", Table: "items", Columns: []string{"id"}, Unique: true, Method: catalog.MethodNSF,
				}, opts)
				return err
			},
		},
		{
			// The SF build with readers in the loop: by_id is complete before
			// the harness arms, the observer serves scripted reads off it (and
			// off the heap's zone-mapped scan) at every checkpoint, and the
			// post-recovery oracle re-checks the whole read path — the crash
			// may land mid-lookup, mid-scan, or between a DML's tree change
			// and its cache invalidation, and recovery must leave nothing
			// stale (the cache and zone maps are memory-only, so a restart
			// empties them by construction; ReadCheck proves the rebuilt
			// state serves exactly the committed table).
			Name: "readpath",
			Rows: 240,
			Opts: sfOpts,
			Setup: func(db *engine.DB, rids []types.RID) error {
				_, err := core.Build(db, engine.CreateIndexSpec{
					Name: "by_id", Table: "items", Columns: []string{"id"}, Unique: true,
					Method: catalog.MethodOffline,
				}, core.Options{})
				return err
			},
			Specs: []engine.CreateIndexSpec{
				{Name: "by_id", Table: "items", Columns: []string{"id"}, Unique: true, Method: catalog.MethodOffline},
				nameSpec("by_name", catalog.MethodSF),
			},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := sfOpts
				opts.OnCheckpoint = readObserver(db, rids, "by_name")
				_, err := core.Build(db, nameSpec("by_name", catalog.MethodSF), opts)
				return err
			},
			ReadCheck: true,
		},
		{
			// The SF build with several delta-chained runs per sort: a
			// crash can land mid chain in any run, between a checkpoint and
			// its run truncation, or mid load, and resume must continue
			// every chain from its durable RunMeta.High. The full oracle —
			// tree invariants, heap↔index equivalence — runs at every fault
			// point.
			Name:  "compress",
			Rows:  360,
			Opts:  compressOpts,
			Specs: []engine.CreateIndexSpec{compressSpec},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := compressOpts
				opts.OnCheckpoint = observer(db, rids)
				_, err := core.Build(db, compressSpec, opts)
				return err
			},
		},
		{
			// The paper's machinery under horizontal partitioning: a unique
			// SF build fans out over two hash shards behind one logical
			// descriptor, with the coordinator in Serial mode so the shard
			// order — shard 0's build, shard 1's build, the cross-shard
			// uniqueness sweep, the completion-meta commit — is a fixed
			// schedule the sweep can crash at every point of. The observer's
			// DML routes through the partition.Router, so side-file capture,
			// cross-shard row migration (an update whose new id hashes to the
			// other shard), and the logical-metadata WAL records all sit
			// inside the faulted section. verifyPartScenario supplies the
			// partition-aware oracle.
			Name:       "part2",
			Rows:       300,
			Opts:       sfOpts,
			Partitions: 2,
			Specs: []engine.CreateIndexSpec{
				{Name: "by_name", Table: "items", Columns: []string{"name"}, Unique: true, Method: catalog.MethodSF},
			},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := sfOpts
				opts.OnCheckpoint = observer(partition.NewRouter(db), rids)
				_, err := partition.Build(db, engine.CreateIndexSpec{
					Name: "by_name", Table: "items", Columns: []string{"name"}, Unique: true, Method: catalog.MethodSF,
				}, partition.BuildOptions{Options: opts, Serial: true})
				return err
			},
		},
		{
			// The SF build again, but on a 2-shard buffer pool: same scripted
			// DML, different fetch/eviction/flush internals (per-shard clocks,
			// occasional work-stealing at this small pool size). Its I/O
			// schedule differs from "sf" — pages flush in the same sorted
			// order but evict in shard-local clock order — and the sweep only
			// requires that the schedule be a deterministic function of the
			// scenario, which the fixed page-ID hash guarantees.
			Name:   "shard2",
			Rows:   300,
			Opts:   sfOpts,
			Shards: 2,
			Specs:  []engine.CreateIndexSpec{nameSpec("by_name", catalog.MethodSF)},
			Run: func(db *engine.DB, rids []types.RID) error {
				opts := sfOpts
				opts.OnCheckpoint = observer(db, rids)
				_, err := core.Build(db, nameSpec("by_name", catalog.MethodSF), opts)
				return err
			},
		},
	}
}

// ScenarioByName returns the named scenario, or nil.
func ScenarioByName(name string) *Scenario {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc
		}
	}
	return nil
}
