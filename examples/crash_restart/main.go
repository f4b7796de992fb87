// Crash and restart: kill the system in the middle of an online index build
// and resume it from the builder's checkpoints after ARIES restart recovery
// — the paper's §1.3 restartability story end to end.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"onlineindex"
	"onlineindex/internal/engine"
	"onlineindex/internal/vfs"
)

func main() {
	fs := onlineindex.NewMemFS()
	db, err := onlineindex.Open(onlineindex.Config{FS: fs, PoolSize: 4096})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateTable("big", onlineindex.Schema{
		{Name: "id", Kind: onlineindex.KindInt64},
		{Name: "key", Kind: onlineindex.KindString},
	}); err != nil {
		log.Fatal(err)
	}
	const rows = 40_000
	for i := 0; i < rows; i++ {
		tx := db.Begin()
		if _, err := db.Insert(tx, "big", row(int64(i))); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("populated %d rows\n", rows)

	// Start an SF build with frequent checkpoints and pull the plug right
	// after the builder's first durable checkpoint.
	opts := onlineindex.BuildOptions{CheckpointPages: 16, CheckpointKeys: 4000}
	crashing := opts
	crashing.OnCheckpoint = func(engine.IBPhase) error {
		db.Crash()
		return vfs.ErrCrashed
	}
	if _, err := db.BuildIndex(onlineindex.IndexSpec{
		Name: "big_by_key", Table: "big", Columns: []string{"key"}, Method: onlineindex.SF,
	}, crashing); !errors.Is(err, vfs.ErrCrashed) {
		log.Fatalf("build was not interrupted by the crash: %v", err)
	}
	fmt.Println("CRASH: power cut mid-build; volatile state gone")

	// Restart: recovery repairs the engine, then the pending build resumes
	// from its last checkpoint instead of starting over.
	start := time.Now()
	db2, err := onlineindex.RecoverWithoutResume(onlineindex.Config{FS: fs, PoolSize: 4096})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restart recovery done in %.0fms\n", time.Since(start).Seconds()*1000)

	pending, err := db2.PendingBuilds()
	if err != nil {
		log.Fatal(err)
	}
	if len(pending) != 1 {
		log.Fatalf("unexpected pending builds: %d", len(pending))
	}
	pb := pending[0]
	fmt.Printf("resuming build of %q from checkpointed phase %q\n", pb.Index.Name, pb.State.Phase)
	res, err := db2.ResumeBuild(pb, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume re-extracted %d of %d keys (work before the last checkpoint was preserved)\n",
		res.Stats.KeysExtracted, rows)

	if err := db2.CheckIndexConsistency("big_by_key"); err != nil {
		log.Fatal(err)
	}
	tx := db2.Begin()
	rids, err := db2.IndexLookup(tx, "big_by_key", onlineindex.String(key(12345)))
	if err != nil || len(rids) != 1 {
		log.Fatalf("lookup after restart: %v %v", rids, err)
	}
	tx.Commit()
	fmt.Println("index complete and verified after crash + resume")
}

func key(id int64) string {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return fmt.Sprintf("k%016x", h)
}

func row(id int64) onlineindex.Row {
	return onlineindex.Row{onlineindex.Int64(id), onlineindex.String(key(id))}
}
