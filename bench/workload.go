package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"onlineindex"
	"onlineindex/internal/btree"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/workload"
)

// run is one execution of one workload: set-up, then the crash/resume, quiet
// build, serve and build-round phases in the workload's regime; a traced run
// adds the staged ledger and the layer probes on the same table.
//
// The phases that report exact counts (crash/resume, the quiet SF build
// whose disk growth is measured) come first, on the table exactly as
// populated; the phases with timing-dependent DML come after them.
type run struct {
	reg     regime
	seed    int64
	scale   float64
	seconds float64
	traced  bool
	outDir  string
	log     io.Writer

	dataDir string
	rawFS   vfs.FS    // the real file system under the engine
	tfs     *timingFS // the decorator the engine is handed: elides fsync, and counts when traced
	db      *onlineindex.DB
	idBase  int64
	popRIDs []onlineindex.RID
	gen     *loadGen
	rec     *recorder
	root    *span
	started time.Time

	attempted, failed int
	errs              []string
	metrics           map[string]float64
	detail            []string
	lastIndex         onlineindex.IndexInfo // descriptor of the latest completed build
	quietSF           time.Duration         // traced runs: the quiet SF build with the decorator off
}

// runResult is what a run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Machine   machineRecord      `json:"machine"`
	Metrics   map[string]float64 `json:"metrics"`
	Detail    []string           `json:"detail"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// ok counts one attempted operation and, for a non-nil err, one failure.
func (r *run) ok(what string, err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, what+": "+err.Error())
	}
	fmt.Fprintf(r.log, "  FAILED %s: %v\n", what, err)
	return false
}

func (r *run) absorb(what string, s genSample) {
	r.attempted += s.Attempted
	r.failed += s.Failed
	for _, e := range s.Errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, what+": "+e)
		}
	}
}

func (r *run) notef(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.detail = append(r.detail, line)
	fmt.Fprintln(r.log, "  "+line)
}

// deadline is the moment a share of the measuring time, counted from the
// end of set-up, is spent.
func (r *run) deadline(share float64) time.Time {
	return r.started.Add(time.Duration(share * r.seconds * float64(time.Second)))
}

func (r *run) buildOpts(checkpoint bool) onlineindex.BuildOptions {
	o := onlineindex.BuildOptions{SortMemory: r.reg.SortMemory}
	if checkpoint {
		// About sixteen scan checkpoints and twenty load checkpoints per
		// build at any scale.
		o.CheckpointPages = max(1, r.reg.Rows/95/16) // ~95 rows per heap page
		o.CheckpointKeys = max(1, r.reg.Rows/20)
	}
	return o
}

func (r *run) spec(method onlineindex.BuildMethod) onlineindex.IndexSpec {
	return onlineindex.IndexSpec{Name: indexName, Table: tableName, Columns: []string{keyColumn}, Method: method}
}

// execute runs the workload and fills r.metrics.
func (r *run) execute() (res runResult, err error) {
	r.metrics = make(map[string]float64)
	r.dataDir, err = os.MkdirTemp(r.outDir, "data-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(r.dataDir) //nolint:errcheck // scratch data; a leftover is harmless and ignored by git
	if r.traced {
		r.rec = newRecorder(r.reg.Name)
		r.root = r.rec.start("workload:"+r.reg.Name, nil)
	}
	// The id space (hence every key) is a function of the seed; ids stay
	// below 10^8 so keys keep one width.
	r.idBase = (r.seed%50 + 50) % 50 * 1_000_000

	if err := r.setup(); err != nil {
		return res, err
	}
	defer func() {
		if cerr := r.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	r.started = time.Now()

	if err := r.restartPhase(); err != nil {
		return res, err
	}
	if err := r.quietBuild(); err != nil {
		return res, err
	}
	if r.traced {
		// The table is still exactly as populated, like the build the ledger
		// is held against.
		if err := r.ledger(); err != nil {
			return res, err
		}
	}
	if err := r.serve(); err != nil {
		return res, err
	}
	if err := r.drop(); err != nil {
		return res, err
	}
	if err := r.buildRounds(); err != nil {
		return res, err
	}

	m := newMachineRecord(r.seed, r.scale, r.reg.Rows, r.dataDir)
	if r.traced {
		r.rec.end(r.root, nil)
		r.noteSelfTimes()
		if err := r.rec.writeFile(filepath.Join(r.outDir, "trace-"+r.reg.Name+".json"), m); err != nil {
			return res, err
		}
	}
	return runResult{
		Workload: r.reg.Name, Traced: r.traced, Machine: m, Metrics: r.metrics, Detail: r.detail,
		Attempted: r.attempted, Failed: r.failed, Errors: r.errs,
	}, nil
}

// noteSelfTimes lists where the traced run's wall clock went: per span name,
// the time not covered by child spans.
func (r *run) noteSelfTimes() {
	self := selfTimes(r.rec.snapshot())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names[:min(8, len(names))] {
		r.notef("self time %-28s %8.1f ms", n, ms(self[n]))
	}
}

// dbDir is the directory of database number i of this run.
func (r *run) dbDir(i int) string { return filepath.Join(r.dataDir, fmt.Sprintf("db%d", i)) }

// setup populates the table. An untraced run sets up five databases and
// reports the median time, keeping the last; work a later change moves into
// set-up shows here.
func (r *run) setup() error {
	times := 5
	if r.traced {
		times = 1
	}
	sp := r.rec.start("setup", r.root)
	var secs []float64
	for i := 0; i < times; i++ {
		if r.db != nil {
			if err := r.db.Close(); err != nil {
				return err
			}
			os.RemoveAll(r.dbDir(i - 1)) //nolint:errcheck // scratch
		}
		t0 := time.Now()
		fs, err := onlineindex.NewOSFS(r.dbDir(i))
		if err != nil {
			return err
		}
		r.rawFS = fs
		r.tfs = newTimingFS(fs, r.traced)
		db, err := onlineindex.Open(onlineindex.Config{FS: r.tfs, PoolSize: r.reg.PoolSize})
		if err != nil {
			return err
		}
		r.db = db
		tbl, err := db.CreateTable(tableName, workload.Schema())
		if err != nil {
			return err
		}
		r.tfs.setClass(pageFileName(tbl.FileID), "heap")
		if err := r.populate(); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		if err := r.settle(); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.rec.end(sp, map[string]float64{"rows": float64(r.reg.Rows)})
	s := summarize(secs)
	r.metrics["setup_s"] = s.Med
	r.metrics["heap.insert_us"] = s.Med * 1e6 / float64(r.reg.Rows)
	r.notef("setup_s median %.3f (q1 %.3f q3 %.3f, n=%d) rows=%d", s.Med, s.Q1, s.Q3, s.N, r.reg.Rows)
	r.gen = newLoadGen(r.db, r.seed, r.idBase, r.popRIDs)
	return nil
}

func (r *run) populate() error {
	const batch = 10_000 // rows per commit: population is scaffolding, so it forces the log rarely
	r.popRIDs = make([]onlineindex.RID, 0, r.reg.Rows)
	for i := 0; i < r.reg.Rows; {
		tx := r.db.Begin()
		for j := 0; j < batch && i < r.reg.Rows; j++ {
			rid, err := r.db.Insert(tx, tableName, workload.RowOf(r.idBase+int64(i), fillerLen))
			if err != nil {
				tx.Rollback() //nolint:errcheck // the insert error is the one reported
				return err
			}
			r.popRIDs = append(r.popRIDs, rid)
			i++
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// settle writes every dirty page back and takes a checkpoint, untimed,
// before a timed section: no build pays for its predecessor's dirty pages.
func (r *run) settle() error {
	if err := r.db.Engine().Pool().FlushAll(); err != nil {
		return err
	}
	return r.db.Checkpoint()
}

// pageFileName is the buffer pool's name for a page file.
func pageFileName(id types.FileID) string { return fmt.Sprintf("f%06d.dat", id) }

// buildOut is one measured build.
type buildOut struct {
	Method onlineindex.BuildMethod
	Dur    time.Duration
	Rows   int
	Res    *onlineindex.BuildResult
	DML    genSample
	Before layerSnap
	After  layerSnap
}

// build runs one index build from a settled state, beside the load generator
// when dmlRate is positive and the method is online (an offline build
// quiesces updates by definition), and verifies the result untimed. The
// index is left in place; a failed build or verification counts as a failed
// operation and is returned as an error.
func (r *run) build(parent *span, label string, method onlineindex.BuildMethod, opts onlineindex.BuildOptions, dmlRate int) (buildOut, error) {
	out := buildOut{Method: method, Rows: r.gen.liveRows()}
	if err := r.settle(); err != nil {
		return out, err
	}
	runtime.GC()
	sp := r.rec.start(label, parent)
	if r.traced {
		out.Before = r.snapLayers()
	}
	beside := dmlRate > 0 && method != onlineindex.Offline
	if beside {
		r.gen.start(dmlRate, false)
	}
	t0 := time.Now()
	res, err := r.db.BuildIndex(r.spec(method), opts)
	out.Dur = time.Since(t0)
	if beside {
		out.DML = r.gen.halt()
		r.absorb(label+" dml", out.DML)
	}
	if !r.ok(label, err) {
		r.rec.end(sp, nil)
		return out, err
	}
	out.Res = res
	r.lastIndex = res.Index
	r.tfs.setClass(pageFileName(res.Index.FileID), "tree")
	if r.traced {
		out.After = r.snapLayers()
		r.rec.end(sp, out.After.countsSince(out.Before))
	}
	return out, r.verify(label)
}

// verify checks the index against its table and the tree's structure.
func (r *run) verify(label string) error {
	if err := r.db.CheckIndexConsistency(indexName); !r.ok(label+" consistency", err) {
		return err
	}
	tree, err := r.db.Engine().TreeOf(r.lastIndex.ID)
	if err == nil {
		err = btree.CheckInvariants(tree)
	}
	if !r.ok(label+" invariants", err) {
		return err
	}
	return nil
}

func (r *run) drop() error {
	err := r.db.DropIndex(indexName)
	r.ok("drop index", err)
	return err
}

var methodNames = map[onlineindex.BuildMethod]string{
	onlineindex.Offline: "offline", onlineindex.NSF: "nsf", onlineindex.SF: "sf",
}

// buildRounds repeats rounds of one offline, one NSF and one SF build, the
// order rotated each round, until the measuring time is spent (at least two
// rounds; a traced run does one). A build rate is the median over the
// rounds. The DML latencies of a method are pooled over its builds before a
// percentile is taken: beside a CPU-bound build a third of the operations
// wait behind a stall, so a single build's median sits on the knee of its
// distribution and swings with the share of stalled operations, where the
// pooled one moves smoothly.
func (r *run) buildRounds() error {
	methods := []onlineindex.BuildMethod{onlineindex.Offline, onlineindex.NSF, onlineindex.SF}
	phase := r.rec.start("build_rounds", r.root)
	rates := make(map[onlineindex.BuildMethod][]float64)
	lat := make(map[onlineindex.BuildMethod][]float64)
	var late []float64
	var window layerWindow
	minRounds, maxRounds := 2, 12
	if r.traced {
		minRounds, maxRounds = 1, 1
	}
	opts := r.buildOpts(r.reg.Checkpoint)
	var roundDur time.Duration
	for round := 0; round < maxRounds; round++ {
		if round >= minRounds && time.Now().Add(roundDur).After(r.deadline(1)) {
			break
		}
		t0 := time.Now()
		for i := range methods {
			m := methods[(i+round)%len(methods)]
			out, err := r.build(phase, fmt.Sprintf("build:%s:%d", methodNames[m], round), m, opts, r.reg.DMLRate)
			if err != nil {
				return err
			}
			rates[m] = append(rates[m], float64(out.Rows)/out.Dur.Seconds())
			lat[m] = append(lat[m], out.DML.LatMs...)
			late = append(late, out.DML.LateMs...)
			if r.traced {
				window.add(out)
			}
			if err := r.drop(); err != nil {
				return err
			}
		}
		roundDur = time.Since(t0)
	}
	r.rec.end(phase, nil)

	for _, m := range methods {
		s := summarize(rates[m])
		name := methodNames[m] + "_build_rows_per_s"
		r.metrics[name] = s.Med
		r.notef("%s median %.0f (q1 %.0f q3 %.0f, n=%d)", name, s.Med, s.Q1, s.Q3, s.N)
	}
	for _, m := range methods[1:] {
		p50, _ := percentile(lat[m], 50)
		p95, beyond := percentile(lat[m], 95)
		r.metrics[methodNames[m]+"_dml_p50_ms"] = p50
		r.metrics["engine."+methodNames[m]+"_dml_p95_ms"] = p95
		r.notef("%s_dml p50 %.3f ms, p95 %.3f ms (%d beyond): %d operations over %d builds at %d txn/s",
			methodNames[m], p50, p95, beyond, len(lat[m]), len(rates[m]), r.reg.DMLRate)
	}
	lateP99, _ := percentile(late, 99)
	r.metrics["bench.generator_late_ms_p99"] = lateP99
	r.notef("generator lateness p99 %.3f ms (n=%d)", lateP99, len(late))
	if r.traced {
		window.report(r)
	}
	return nil
}

// dirBytes is the total size of the files on fs.
func dirBytes(fs vfs.FS) (int64, error) {
	names, err := fs.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		f, err := fs.Open(n)
		if err != nil {
			return 0, err
		}
		sz, err := f.Size()
		f.Close() //nolint:errcheck // opened only to be measured
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}
