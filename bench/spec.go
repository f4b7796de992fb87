package main

import (
	"encoding/json"
	"math"
)

// metricDef names one reported number. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the index builder sees. Every workload reports
// every one of them: a workload is a regime (storage, memory budgets, load)
// that the same sequence of phases runs in, not a subset of the phases.
//
// Every timing carries the contract's widest bound: on the reference box the
// quartile spread over ten seeds is 2-17% of the median (README.md), and an
// unrelated change to the benchmark's own code moved one build rate by 17%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"offline_build_rows_per_s", "rows/s", "higher", 0.25},
	{"nsf_build_rows_per_s", "rows/s", "higher", 0.25},
	{"sf_build_rows_per_s", "rows/s", "higher", 0.25},
	{"build_disk_bytes_per_row", "bytes/row", "lower", 0.01},
	{"nsf_dml_p50_ms", "ms", "lower", 0.25},
	{"sf_dml_p50_ms", "ms", "lower", 0.25},
	{"lookup_per_s", "1/s", "higher", 0.25},
	{"lookup_p99_us", "us", "lower", 0.25},
	{"scan_rows_per_s", "rows/s", "higher", 0.25},
	{"serve_write_p50_ms", "ms", "lower", 0.25},
	{"resume_s", "s", "lower", 0.25},
	{"resume_redo_frac", "frac", "lower", 0.01},
}

// exactCounts are the end-to-end metrics that are counts made on a table no
// transaction has touched yet: for a fixed seed they repeat exactly.
var exactCounts = map[string]bool{"build_disk_bytes_per_row": true, "resume_redo_frac": true}

// perLayer is the ledger measured from outside each package under
// internal/: counts from public Stats()/Metrics().Snapshot()/BuildResult
// deltas, times from the benchmark timing its own calls. README.md says
// which window each is taken over and which end-to-end metric it should
// move.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("count", "lower", "vfs.write_calls", "vfs.read_calls", "vfs.sync_calls")
	add("bytes", "lower", "vfs.write_bytes", "vfs.read_bytes")
	add("ms", "lower", "vfs.write_ms", "vfs.read_ms")
	for _, c := range ioClasses {
		add("bytes", "lower", "vfs."+c+".write_bytes", "vfs."+c+".read_bytes")
	}
	add("MB/s", "higher", "vfs.seq_write_mb_per_s", "vfs.seq_read_mb_per_s")
	add("us", "lower", "vfs.rand_read_us")

	add("count", "lower", "wal.records", "wal.forces")
	add("bytes/row", "lower", "wal.bytes_per_row")
	add("count", "higher", "wal.group_batch_mean")
	add("ns", "lower", "wal.append_ns")
	add("us", "lower", "wal.force_us")

	add("count", "lower", "buffer.fetches", "buffer.evictions", "buffer.flushes")
	add("frac", "higher", "buffer.hit_frac")
	add("ns", "lower", "buffer.fetch_hit_ns")
	add("us", "lower", "buffer.fetch_miss_us")

	add("count", "lower", "heap.pages")
	add("ms", "lower", "heap.scan_ms")
	add("pages/s", "higher", "heap.scan_pages_per_s")
	add("us", "lower", "heap.insert_us")

	add("ns/row", "lower", "keyenc.extract_ns_per_row")
	add("bytes", "lower", "keyenc.key_bytes_mean")

	add("ms", "lower", "extsort.rungen_ms", "extsort.merge_ms")
	add("ns/row", "lower", "extsort.rungen_ns_per_row", "extsort.merge_ns_per_row")
	add("count", "lower", "extsort.runs", "extsort.merge_fanin")
	add("rows", "higher", "extsort.run_len_mean")
	add("bytes/row", "lower", "extsort.spill_bytes_per_row")

	add("ms", "lower", "btree.load_ms")
	add("ns/row", "lower", "btree.load_ns_per_row", "btree.ib_insert_ns_per_row")
	add("us", "lower", "btree.txn_insert_us", "btree.pseudo_delete_us", "btree.lookup_us")
	add("count", "lower", "btree.splits", "btree.height")
	add("frac", "higher", "btree.leaf_fill_frac")
	add("bytes/row", "lower", "btree.index_bytes_per_row")

	add("count", "lower", "sidefile.appends", "sidefile.len_max")
	add("us", "lower", "sidefile.append_us", "sidefile.apply_us_per_entry")
	add("ms", "lower", "sidefile.catchup_ms")

	add("count", "lower", "lock.requests", "lock.waits", "lock.deadlocks")
	add("ms", "lower", "lock.wait_ms_total")
	add("ns", "lower", "lock.acquire_ns")

	add("ms", "lower", "core.scan_sort_ms", "core.insert_ms", "core.side_file_ms", "core.quiesce_wait_ms",
		"core.extract_busy_ms", "core.feed_wait_ms", "core.feed_busy_ms")
	add("count", "lower", "core.keys_skipped")
	add("count", "higher", "core.checkpoints")
	add("frac", "higher", "core.ledger_coverage", "core.roofline_frac")

	add("ms", "lower", "engine.nsf_dml_p95_ms", "engine.sf_dml_p95_ms")

	add("frac", "higher", "readcache.hit_frac")
	add("count", "lower", "readcache.invalidations")

	add("1/row", "lower", "go.allocs_per_row")
	add("bytes/row", "lower", "go.bytes_alloc_per_row")
	add("MB", "lower", "go.heap_peak_mb")
	add("ms", "lower", "go.gc_pause_ms")
	add("s", "lower", "go.cpu_s")

	add("frac", "lower", "bench.trace_overhead_frac")
	add("ms", "lower", "bench.generator_late_ms_p99")
	return out
}()

// regime is one workload: the storage, memory budgets and load the phases
// run in. Sizes are the full-scale ones; -scale shrinks rows and budgets
// together so the ratios (table : pool, table : sort memory) hold.
type regime struct {
	Name string
	Why  string

	Rows       int
	PoolSize   int // buffer frames of 8 KiB
	SortMemory int // tournament-tree capacity in keys; 0 keeps the default
	// Checkpoint makes the rate-measured builds take builder checkpoints
	// (the crash/resume phase always does).
	Checkpoint bool
	// DMLRate is the open-loop single-operation transaction rate beside
	// every NSF and SF build of the build rounds.
	DMLRate int
	// WriteRate is the open-loop key-update rate beside the reader in the
	// serve phase.
	WriteRate int
	// Shares of -seconds: crash/resume reps and build rounds repeat until
	// their share is spent (each at least once); the serve phase lasts
	// exactly its share.
	RestartShare, ServeShare float64
}

var regimes = []regime{
	{
		Name: "quiet_spill",
		Why:  "table 8x the pool, sort 12x its memory, only 200 txn/s of DML: heap scan, buffer misses, run generation, merge and loader / IB insert do the work",
		Rows: 200_000, PoolSize: 256, SortMemory: 8192,
		DMLRate: 200, WriteRate: 200, RestartShare: 0.20, ServeShare: 0.15,
	},
	{
		Name: "busy_spill",
		Why:  "same table and budgets beside 1000 txn/s of DML: lock, WAL force, side-file and NSF direct maintenance carry load (updates not quiesced)",
		Rows: 200_000, PoolSize: 256, SortMemory: 8192,
		DMLRate: 1000, WriteRate: 500, RestartShare: 0.20, ServeShare: 0.15,
	},
	{
		Name: "inmem_restart",
		Why:  "pool holds table and tree, default sort memory, checkpointing builds beside 1000 txn/s: every fetch hits, CPU work isolated, checkpoints and restartable sort priced",
		Rows: 200_000, PoolSize: 8192, Checkpoint: true,
		DMLRate: 1000, WriteRate: 500, RestartShare: 0.35, ServeShare: 0.15,
	},
	{
		Name: "serve_mixed",
		Why:  "pool smaller than the tree, Zipf readers beside 500 txn/s of key updates: btree, buffer, lock and readcache used the other way round",
		Rows: 200_000, PoolSize: 512, SortMemory: 8192,
		DMLRate: 500, WriteRate: 500, RestartShare: 0.15, ServeShare: 0.30,
	},
}

func regimeByName(name string) (regime, bool) {
	for _, r := range regimes {
		if r.Name == name {
			return r, true
		}
	}
	return regime{}, false
}

// scaled shrinks a regime for -scale < 1, keeping enough rows, frames and
// tournament slots for every phase to do something.
func (r regime) scaled(scale float64) regime {
	if scale == 1 {
		return r
	}
	shrink := func(v, floor int) int {
		if v == 0 {
			return 0
		}
		return max(floor, int(math.Round(float64(v)*scale)))
	}
	r.Rows = shrink(r.Rows, 1500)
	r.PoolSize = shrink(r.PoolSize, 48)
	r.SortMemory = shrink(r.SortMemory, 64)
	return r
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures
// after set-up.
const runSeconds = 26

// benchmarkJSON renders the contract file from the tables above (`-spec`
// prints it; bench_test.go holds the committed file to it).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, r := range regimes {
		doc.Workloads = append(doc.Workloads, wl{r.Name, r.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables above are plain strings and numbers
	}
	return append(b, '\n')
}
