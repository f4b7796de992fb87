// Command idxbuild is a small demonstration CLI: it loads a synthetic table,
// runs an update workload against it, builds an index with the chosen
// algorithm while the workload runs, and prints the build and workload
// statistics plus a consistency verdict.
//
// Usage:
//
//	idxbuild -rows 50000 -method sf -updaters 4
//	idxbuild -method nsf -unique
//	idxbuild -method offline -crash   # offline cannot crash-resume; see -method sf -crash
//	idxbuild -partitions 4 -partition-scheme hash -method sf -updaters 4
//	                                  # fan the build out over 4 hash shards
//	                                  # behind one logical index
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"onlineindex"
	"onlineindex/internal/engine"
	"onlineindex/internal/harness"
	"onlineindex/internal/vfs"
	"onlineindex/internal/workload"
)

func main() {
	rows := flag.Int("rows", 50_000, "table rows to populate")
	method := flag.String("method", "sf", "build method: offline | nsf | sf")
	updaters := flag.Int("updaters", 4, "concurrent update workers during the build")
	unique := flag.Bool("unique", false, "build a unique index (on the id column)")
	crash := flag.Bool("crash", false, "crash at the build's first checkpoint, then recover and resume")
	sortSF := flag.Bool("sortsf", false, "apply the side-file sorted (SF only)")
	adminAddr := flag.String("admin", "", "serve the live admin endpoint on this address (e.g. 127.0.0.1:7070; port 0 picks one)")
	linger := flag.Duration("linger", 0, "keep the admin endpoint serving this long after the build finishes")
	bufShards := flag.Int("buffer-shards", 0, "buffer pool page-table shards, rounded up to a power of two (0 = min(16, GOMAXPROCS))")
	lockStripes := flag.Int("lock-stripes", 0, "lock manager bucket-map stripes, rounded up to a power of two (0 = min(16, GOMAXPROCS))")
	partitions := flag.Int("partitions", 0, "hash/range-partition the table into this many shards and fan the build out over them (0 = unpartitioned)")
	partScheme := flag.String("partition-scheme", "hash", "partitioning scheme for -partitions: range or hash (on the id column)")
	flag.Parse()

	var m onlineindex.BuildMethod
	switch strings.ToLower(*method) {
	case "offline":
		m = onlineindex.Offline
	case "nsf":
		m = onlineindex.NSF
	case "sf":
		m = onlineindex.SF
	default:
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(2)
	}

	fs := onlineindex.NewMemFS()
	cfg := onlineindex.Config{FS: fs, PoolSize: 4096, BufferShards: *bufShards, LockStripes: *lockStripes}
	db, err := onlineindex.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng := db.Engine()
	if *adminAddr != "" {
		adm, err := db.ServeAdmin(*adminAddr)
		if err != nil {
			log.Fatal(err)
		}
		currentAdmin = adm
		fmt.Printf("admin endpoint at %s\n", adm.URL())
	}
	if *partitions > 0 {
		pspec := onlineindex.PartitionSpec{Partitions: *partitions, KeyColumn: "id"}
		switch strings.ToLower(*partScheme) {
		case "hash":
			pspec.Scheme = onlineindex.HashPartition
		case "range":
			pspec.Scheme = onlineindex.RangePartition
			for i := 1; i < *partitions; i++ {
				pspec.Bounds = append(pspec.Bounds, onlineindex.Int64(int64(*rows*i / *partitions)))
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown partition scheme %q\n", *partScheme)
			os.Exit(2)
		}
		if _, err := db.CreatePartitionedTable("orders", workload.Schema(), pspec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partitioned orders into %d %s shards\n", *partitions, strings.ToLower(*partScheme))
	} else if _, err := eng.CreateTable("orders", workload.Schema()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("populating %d rows...\n", *rows)
	rids, err := workload.Populate(db, "orders", *rows, 24)
	if err != nil {
		log.Fatal(err)
	}

	cols := []string{"key"}
	if *unique {
		cols = []string{"id"}
	}
	spec := onlineindex.IndexSpec{
		Name: "orders_idx", Table: "orders", Columns: cols, Unique: *unique, Method: m,
	}
	opts := onlineindex.BuildOptions{
		CheckpointPages: 64, CheckpointKeys: 10_000, SortSideFile: *sortSF,
	}

	var runner *workload.Runner
	if *updaters > 0 && m != onlineindex.Offline && !*crash {
		// The crash demo runs without the workload: the workers would keep
		// talking to the fenced pre-crash incarnation.
		runner = workload.NewRunner(db, "orders", rids, *updaters, workload.DefaultMix)
		runner.Start()
		fmt.Printf("started %d update workers\n", *updaters)
	}

	currentDB = db
	start := time.Now()
	var res *onlineindex.BuildResult
	if *crash {
		res, err = buildWithCrash(cfg, db, spec, opts, *partitions > 0)
	} else {
		res, err = db.BuildIndex(spec, opts)
	}
	buildDur := time.Since(start)
	var wst workload.Stats
	if runner != nil {
		wst = runner.Stop()
	}
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	db = currentDB
	if db == nil {
		log.Fatal("internal: lost database handle")
	}
	if err := db.CheckIndexConsistency("orders_idx"); err != nil {
		log.Fatalf("CONSISTENCY FAILURE: %v", err)
	}
	var cl float64
	if *partitions == 0 {
		cl, _ = harness.IndexClustering(db.Engine(), "orders_idx")
	}

	st := res.Stats
	fmt.Printf("\nbuild method      %s\n", st.Method)
	fmt.Printf("total time        %.1fms\n", buildDur.Seconds()*1000)
	fmt.Printf("  scan+sort       %.1fms  (%d pages, %d keys, %d runs)\n",
		st.ScanSort.Seconds()*1000, st.PagesScanned, st.KeysExtracted, st.Runs)
	fmt.Printf("  insert/load     %.1fms  (%d inserted, %d duplicate-skipped)\n",
		st.Insert.Seconds()*1000, st.KeysInserted, st.KeysSkipped)
	if st.Method == onlineindex.SF {
		fmt.Printf("  side-file       %.1fms  (%d entries, %d applied)\n",
			st.SideFile.Seconds()*1000, st.SideFileLen, st.SideFileApplied)
	}
	fmt.Printf("quiesce wait      %.1fms\n", st.QuiesceWait.Seconds()*1000)
	fmt.Printf("checkpoints       %d\n", st.Checkpoints)
	if *partitions == 0 {
		fmt.Printf("clustering        %.3f\n", cl)
	}
	if runner != nil {
		fmt.Printf("workload          %d commits (%.0f/s), worst stall %.1fms\n",
			wst.Commits, wst.Throughput(), wst.MaxStall.Seconds()*1000)
	}
	fmt.Println("index verified consistent with table")
	if currentAdmin != nil {
		if *linger > 0 {
			fmt.Printf("admin endpoint serving the final snapshot for %s\n", *linger)
			time.Sleep(*linger)
		}
		currentAdmin.Close() //nolint:errcheck
	}
}

// currentDB lets buildWithCrash hand back the post-recovery handle.
var currentDB *onlineindex.DB

// currentAdmin is the live admin endpoint; buildWithCrash rebinds it to the
// recovered engine so pollers keep seeing the resumed build.
var currentAdmin *onlineindex.AdminServer

// rebindAdmin moves the admin endpoint onto the recovered database.
func rebindAdmin(db *onlineindex.DB) {
	if currentAdmin == nil {
		return
	}
	addr := currentAdmin.Addr()
	currentAdmin.Close() //nolint:errcheck
	currentAdmin = nil
	if adm, err := db.ServeAdmin(addr); err == nil {
		currentAdmin = adm
	}
}

// buildWithCrash fails the system at the build's first committed builder
// checkpoint, then runs restart recovery and finishes the build from that
// checkpoint. Crashing from the checkpoint hook rather than on a timer means
// the crash always lands after the index descriptor is durable and before
// the build completes, however fast the host is.
func buildWithCrash(cfg onlineindex.Config, db *onlineindex.DB, spec onlineindex.IndexSpec, opts onlineindex.BuildOptions, partitioned bool) (*onlineindex.BuildResult, error) {
	currentDB = db
	// The fan-out build checkpoints its shards concurrently; the first one
	// to get here pulls the plug, the rest find the system already down.
	var once sync.Once
	crashing := opts
	crashing.OnCheckpoint = func(engine.IBPhase) error {
		once.Do(func() { db.Crash() })
		return vfs.ErrCrashed
	}
	if _, err := db.BuildIndex(spec, crashing); !errors.Is(err, vfs.ErrCrashed) {
		return nil, fmt.Errorf("build was not interrupted at its first checkpoint: %v", err)
	}
	fmt.Println("CRASH injected at the first builder checkpoint; recovering...")
	if partitioned {
		// Partitioned recovery is coordinator-driven: Recover resumes the
		// checkpointed shard builds, rebuilds shards whose descriptors never
		// became durable, and re-runs the completion protocol.
		db2, err := onlineindex.Recover(cfg)
		if err != nil {
			return nil, err
		}
		currentDB = db2
		rebindAdmin(db2)
		fmt.Println("coordinator finished the fan-out build during recovery")
		return &onlineindex.BuildResult{
			Index: onlineindex.IndexInfo{
				Name: spec.Name, Unique: spec.Unique, Method: spec.Method,
			},
			Stats: onlineindex.BuildStats{Method: spec.Method},
		}, nil
	}
	db2, err := onlineindex.RecoverWithoutResume(cfg)
	if err != nil {
		return nil, err
	}
	currentDB = db2
	rebindAdmin(db2)
	if spec.Method == onlineindex.Offline {
		// The offline baseline is not restartable: recovery cancelled it.
		fmt.Println("recovery cancelled the offline build; rebuilding from scratch")
		return db2.BuildIndex(spec, opts)
	}
	pending, err := db2.PendingBuilds()
	if err != nil {
		return nil, err
	}
	if len(pending) != 1 {
		return nil, fmt.Errorf("%d interrupted builds after restart, want 1", len(pending))
	}
	pb := pending[0]
	fmt.Printf("resuming from checkpointed phase %q\n", pb.State.Phase)
	return db2.ResumeBuild(pb, opts)
}
