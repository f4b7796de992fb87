// Package experiments implements the reproduction's evaluation suite. The
// paper (SIGMOD 1992) has no quantitative evaluation section — its §4
// comparison is qualitative — so each experiment here quantifies one of its
// claims; DESIGN.md maps experiment IDs to claims and EXPERIMENTS.md records
// claim-vs-measured outcomes. Everything runs on the MemFS simulated stable
// storage, so absolute times are laptop-scale while the *shape* of the
// results (who wins, by what factor) is the reproducible output.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
	"onlineindex/internal/workload"
)

// Scale trades runtime for fidelity: 1.0 is the default benchmark scale;
// smaller values shrink table sizes for quick runs.
type Config struct {
	Scale float64
	Out   io.Writer
}

func (c Config) rows(n int) int {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	v := int(float64(n) * c.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

func (c Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// Experiment is one registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

// All returns the registered experiments in ID order.
func All() []Experiment {
	list := []Experiment{
		{"E1", "Build time and phase breakdown: offline vs NSF vs SF (§4)", E1BuildTime},
		{"E2", "Update availability during builds (§1, §4)", E2Availability},
		{"E3", "Quiesce windows: descriptor-create (NSF) vs none (SF) (§2.2.1, §3.2.1)", E3Quiesce},
		{"E4", "Index clustering vs concurrent update activity (§4)", E4Clustering},
		{"E5", "Index-builder logging overhead (§2.3.1, §4)", E5LogBytes},
		{"E6", "Crash mid-build: checkpointed restart vs from-scratch (§2.2.3, §3.2.4)", E6BuildRestart},
		{"E7", "Restartable sort: work preserved across crashes (§5)", E7SortRestart},
		{"E8", "Pseudo-deleted key garbage and GC (§2.2.4)", E8PseudoGC},
		{"E9", "Multiple indexes in one scan (§6.2)", E9MultiIndex},
		{"E10", "Correctness battery: races, rollbacks, unique keys (§2.2.3)", E10Correctness},
		{"E11", "Side-file growth and catch-up (§3.2.2-3.2.5)", E11SideFile},
	}
	sort.Slice(list, func(i, j int) bool {
		a, _ := strconv.Atoi(list[i].ID[1:])
		b, _ := strconv.Atoi(list[j].ID[1:])
		return a < b
	})
	return list
}

// Get returns one experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// shared setup
// ---------------------------------------------------------------------------

const tableName = "orders"

// setup opens a DB with a populated orders table.
func setup(rows int) (*engine.DB, []types.RID, error) {
	db, err := engine.Open(engine.Config{FS: vfs.NewMemFS(), PoolSize: 4096})
	if err != nil {
		return nil, nil, err
	}
	if _, err := db.CreateTable(tableName, workload.Schema()); err != nil {
		return nil, nil, err
	}
	rids, err := workload.Populate(db, tableName, rows, 24)
	if err != nil {
		return nil, nil, err
	}
	return db, rids, nil
}

func spec(name string, method catalog.BuildMethod) engine.CreateIndexSpec {
	return engine.CreateIndexSpec{
		Name: name, Table: tableName, Columns: []string{"key"}, Method: method,
	}
}

func methodName(m catalog.BuildMethod) string { return m.String() }

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()*1000) }
