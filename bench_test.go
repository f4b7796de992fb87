// Benchmarks: one testing.B benchmark per experiment family of DESIGN.md's
// experiment index. They exercise the same code paths as cmd/benchtab (which
// prints the full tables recorded in EXPERIMENTS.md); the benchmarks report
// throughput-style metrics so `go test -bench` gives a one-screen summary.
package onlineindex_test

import (
	"fmt"
	"testing"
	"time"

	"onlineindex"
	"onlineindex/internal/catalog"
	"onlineindex/internal/core"
	"onlineindex/internal/engine"
	"onlineindex/internal/experiments"
	"onlineindex/internal/extsort"
	"onlineindex/internal/harness"
	"onlineindex/internal/vfs"
	"onlineindex/internal/workload"
)

const benchRows = 20_000

func benchDB(b *testing.B) (*engine.DB, []onlineindex.RID) {
	b.Helper()
	db, err := engine.Open(engine.Config{FS: vfs.NewMemFS(), PoolSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateTable("orders", workload.Schema()); err != nil {
		b.Fatal(err)
	}
	rids, err := workload.Populate(db, "orders", benchRows, 24)
	if err != nil {
		b.Fatal(err)
	}
	return db, rids
}

func buildSpec(method catalog.BuildMethod) engine.CreateIndexSpec {
	return engine.CreateIndexSpec{
		Name: "bench_idx", Table: "orders", Columns: []string{"key"}, Method: method,
	}
}

// BenchmarkE1Build measures quiet-table build throughput (keys/s) per method.
func BenchmarkE1Build(b *testing.B) {
	for _, method := range []catalog.BuildMethod{catalog.MethodOffline, catalog.MethodNSF, catalog.MethodSF} {
		b.Run(method.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, _ := benchDB(b)
				b.StartTimer()
				if _, err := core.Build(db, buildSpec(method), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchRows*b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkE1BuildTime measures quiet-table build wall-clock on a 200k-row
// table.
func BenchmarkE1BuildTime(b *testing.B) {
	const rows = 200_000
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		b.Run(method.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := engine.Open(engine.Config{FS: vfs.NewMemFS(), PoolSize: 4096})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.CreateTable("orders", workload.Schema()); err != nil {
					b.Fatal(err)
				}
				if _, err := workload.Populate(db, "orders", rows, 24); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.Build(db, buildSpec(method), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkE2Availability measures committed update transactions per second
// while a build runs.
func BenchmarkE2Availability(b *testing.B) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		b.Run(method.String(), func(b *testing.B) {
			var commits uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, rids := benchDB(b)
				runner := workload.NewRunner(db, "orders", rids, 4, workload.DefaultMix)
				b.StartTimer()
				runner.Start()
				if _, err := core.Build(db, buildSpec(method), core.Options{}); err != nil {
					b.Fatal(err)
				}
				st := runner.Stop()
				commits += st.Commits
				elapsed += st.Elapsed
			}
			if elapsed > 0 {
				b.ReportMetric(float64(commits)/elapsed.Seconds(), "commits/s")
			}
		})
	}
}

// BenchmarkE4Clustering reports the clustering factor each method achieves
// under a fixed concurrent load.
func BenchmarkE4Clustering(b *testing.B) {
	for _, method := range []catalog.BuildMethod{catalog.MethodNSF, catalog.MethodSF} {
		b.Run(method.String(), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, rids := benchDB(b)
				runner := workload.NewRunner(db, "orders", rids, 4, workload.DefaultMix)
				b.StartTimer()
				runner.Start()
				if _, err := core.Build(db, buildSpec(method), core.Options{}); err != nil {
					b.Fatal(err)
				}
				runner.Stop()
				cl, err := harness.IndexClustering(db, "bench_idx")
				if err != nil {
					b.Fatal(err)
				}
				sum += cl
			}
			b.ReportMetric(sum/float64(b.N), "clustering")
		})
	}
}

// BenchmarkE5LogBytes reports log bytes written per built key.
func BenchmarkE5LogBytes(b *testing.B) {
	type variant struct {
		name   string
		method catalog.BuildMethod
		batch  int
	}
	for _, v := range []variant{
		{"NSF-multikey", catalog.MethodNSF, 64},
		{"NSF-perkey", catalog.MethodNSF, 1},
		{"SF", catalog.MethodSF, 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			var bytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, _ := benchDB(b)
				before := db.Log().Stats()
				b.StartTimer()
				if _, err := core.Build(db, buildSpec(v.method), core.Options{BatchSize: v.batch}); err != nil {
					b.Fatal(err)
				}
				bytes += db.Log().Stats().Delta(before).Bytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N*benchRows), "logB/key")
		})
	}
}

// BenchmarkE7Sort measures the restartable sort's throughput, with and
// without checkpointing overhead.
func BenchmarkE7Sort(b *testing.B) {
	const items = 100_000
	for _, every := range []int{0, 10_000} {
		name := "no-checkpoints"
		if every > 0 {
			name = fmt.Sprintf("checkpoint-every-%d", every)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs := vfs.NewMemFS()
				s := extsort.NewSorter(fs, "bench", 4096)
				for j := 0; j < items; j++ {
					it := []byte(workload.KeyOf(int64(j * 2654435761 % items)))
					if err := s.Add(it); err != nil {
						b.Fatal(err)
					}
					if every > 0 && (j+1)%every == 0 {
						if _, err := s.Checkpoint(nil); err != nil {
							b.Fatal(err)
						}
					}
				}
				runs, err := s.Finish()
				if err != nil {
					b.Fatal(err)
				}
				m, err := extsort.NewMerger(fs, runs, nil)
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, _, ok, err := m.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				m.Close()
			}
			b.ReportMetric(float64(items*b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

// BenchmarkE9MultiIndex compares three sequential builds against one shared
// scan.
func BenchmarkE9MultiIndex(b *testing.B) {
	mkSpecs := func(prefix string) []engine.CreateIndexSpec {
		return []engine.CreateIndexSpec{
			{Name: prefix + "_key", Table: "orders", Columns: []string{"key"}, Method: catalog.MethodSF},
			{Name: prefix + "_id", Table: "orders", Columns: []string{"id"}, Method: catalog.MethodSF},
			{Name: prefix + "_filler", Table: "orders", Columns: []string{"filler"}, Method: catalog.MethodSF},
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, _ := benchDB(b)
			b.StartTimer()
			for _, s := range mkSpecs("s") {
				if _, err := core.Build(db, s, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("single-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, _ := benchDB(b)
			b.StartTimer()
			if _, err := core.BuildMany(db, mkSpecs("m"), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDML measures baseline transaction throughput (no build), for
// scale context in EXPERIMENTS.md.
func BenchmarkDML(b *testing.B) {
	db, rids := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Insert(tx, "orders", workload.RowOf(int64(1_000_000+i), 16)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	_ = rids
}

// TestExperimentsSmoke runs every experiment at a small scale so the full
// table-generation path stays green in CI.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments smoke test is not -short")
	}
	cfg := experiments.Config{Scale: 0.03}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if err := e.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
