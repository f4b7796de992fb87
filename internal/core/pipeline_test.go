package core

import (
	"bytes"
	"fmt"
	"testing"

	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/types"
)

// indexEntries dumps a complete index's live (key, RID) entries in key
// order as one byte string, so two builds can be compared byte for byte.
func indexEntries(t testing.TB, db *engine.DB, name string) []byte {
	t.Helper()
	var out []byte
	err := db.IndexScan(nil, name, nil, nil, func(key []byte, rid types.RID) bool {
		out = appendRIDBytes(append(out, key...), rid)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelScanMatchesSerial builds the same index on identically
// populated tables with ScanWorkers 1 and 4 and requires byte-identical
// entry streams (and, for the bottom-up methods, the same page count): the
// pipeline's in-order sorter feed must make worker count unobservable.
func TestParallelScanMatchesSerial(t *testing.T) {
	const rows = 5000
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			var ref []byte
			var refPages int
			for _, workers := range []int{1, 4} {
				db, _ := newDB(t, rows)
				res, err := Build(db, spec("by_name", method, false), Options{ScanWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.KeysExtracted != rows {
					t.Fatalf("workers=%d: extracted %d keys, want %d", workers, res.Stats.KeysExtracted, rows)
				}
				if err := db.CheckIndexConsistency("by_name"); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := indexEntries(t, db, "by_name")
				tree, err := db.TreeOf(res.Index.ID)
				if err != nil {
					t.Fatal(err)
				}
				pages, err := tree.PageCount()
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					ref, refPages = got, int(pages)
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("workers=%d: entry stream differs from serial build (%d vs %d bytes)", workers, len(got), len(ref))
				}
				if int(pages) != refPages {
					t.Fatalf("workers=%d: index has %d pages, serial build had %d", workers, pages, refPages)
				}
			}
		})
	}
}

// TestParallelScanUnderWorkload runs the online methods with a concurrent
// update workload at ScanWorkers=4: the SF Current-RID invariant and the
// NSF race rules must hold with extraction fanned out.
func TestParallelScanUnderWorkload(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, rids := newDB(t, 3000)
			stop := make(chan struct{})
			wg := runWorkload(t, db, rids, 3, stop)
			res, err := Build(db, spec("by_name", method, false),
				Options{ScanWorkers: 4, CheckpointPages: 4, CheckpointKeys: 500})
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.Index.State != catalog.StateComplete {
				t.Fatalf("state = %v", res.Index.State)
			}
			if err := db.CheckIndexConsistency("by_name"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuildManyParallelScan drives the multi-index shared scan through the
// pipeline with several workers.
func TestBuildManyParallelScan(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, rids := newDB(t, 3000)
			stop := make(chan struct{})
			wg := runWorkload(t, db, rids, 2, stop)
			specs := []engine.CreateIndexSpec{
				{Name: "m_name", Table: "items", Columns: []string{"name"}, Method: method},
				{Name: "m_qty", Table: "items", Columns: []string{"qty"}, Method: method},
			}
			results, err := BuildMany(db, specs, Options{ScanWorkers: 4})
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("results = %d", len(results))
			}
			for _, name := range []string{"m_name", "m_qty"} {
				if err := db.CheckIndexConsistency(name); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

// TestPipelineStatsPopulated checks the new stage counters are wired: a
// parallel scan must report its worker count and extraction busy time.
func TestPipelineStatsPopulated(t *testing.T) {
	db, _ := newDB(t, 4000)
	res, err := Build(db, spec("by_name", catalog.MethodSF, false), Options{ScanWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Stats.Pipeline
	if p.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", p.Workers)
	}
	if p.ExtractBusy <= 0 {
		t.Fatalf("ExtractBusy = %v, want > 0", p.ExtractBusy)
	}
	fmt.Printf("pipeline stats: %+v\n", p)
}
