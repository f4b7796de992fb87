package core

import (
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

// TestParallelScanUnderWorkload runs the online methods beside a concurrent
// update workload with scan and load checkpoints: the SF Current-RID
// invariant and the NSF race rules must hold while updaters run in parallel
// with the scan.
func TestParallelScanUnderWorkload(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		t.Run(method.String(), func(t *testing.T) {
			db, rids := newDB(t, 3000)
			stop := make(chan struct{})
			wg := runWorkload(t, db, rids, 3, stop)
			res, err := Build(db, spec("by_name", method, false),
				Options{CheckpointPages: 4, CheckpointKeys: 500})
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

// TestBuildManyParallelScan drives the multi-index shared scan beside a
// concurrent update workload; each index's finish runs on its own
// goroutine.
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
			results, err := BuildMany(db, specs, Options{})
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

// TestPipelineStatsPopulated checks the scan's step counters are wired: a
// build must report its extraction and sorter-feed busy time.
func TestPipelineStatsPopulated(t *testing.T) {
	db, _ := newDB(t, 4000)
	res, err := Build(db, spec("by_name", catalog.MethodSF, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Stats.Pipeline
	if p.ExtractBusy <= 0 || p.FeedBusy <= 0 {
		t.Fatalf("ExtractBusy = %v, FeedBusy = %v, want both > 0", p.ExtractBusy, p.FeedBusy)
	}
	t.Logf("pipeline stats: %+v", p)
}
