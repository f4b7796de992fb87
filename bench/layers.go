package main

import (
	"runtime"
	"syscall"
	"time"

	"onlineindex"
	"onlineindex/internal/metrics"
)

// layerSnap is what the traced run reads at a phase boundary: the engine's
// metrics registry and the timing decorator's per-class I/O counters.
type layerSnap struct {
	Reg metrics.Snapshot
	IO  map[string]ioCounts
}

func (r *run) snapLayers() layerSnap {
	return layerSnap{Reg: r.db.Metrics(), IO: r.tfs.byClass()}
}

// registryCounts are the registry counters the ledger carries, by the name
// they are summed under.
var registryCounts = []string{
	"wal.records", "wal.bytes", "wal.forces",
	"buffer.fetches", "buffer.hits", "buffer.evictions", "buffer.flushes",
	"btree.splits", "sidefile.appends",
	"lock.requests", "lock.waits", "lock.deadlocks",
	"readcache.hits", "readcache.misses", "readcache.invalidations",
}

// counterDelta is after minus before for one registry counter.
func counterDelta(after, before metrics.Snapshot, name string) float64 {
	return float64(after.Counter(name) - before.Counter(name))
}

// countsSince is the work each layer did between two snapshots, as a flat
// name -> count map (attached to spans, and summed over a window).
func (a layerSnap) countsSince(b layerSnap) map[string]float64 {
	out := make(map[string]float64)
	for _, n := range registryCounts {
		out[n] = counterDelta(a.Reg, b.Reg, n)
	}
	hist := func(name, key string) {
		ha, hb := a.Reg.Histograms[name], b.Reg.Histograms[name]
		out[key+"_count"] = float64(ha.Count - hb.Count)
		out[key+"_sum"] = float64(ha.Sum - hb.Sum)
	}
	hist("wal.group_commit.batch_size", "wal.batch")
	hist("lock.wait_ns", "lock.wait_ns")
	hist("extsort.run_len", "extsort.run_len")
	io := func(prefix string, c ioCounts) {
		out[prefix+"write_calls"] = float64(c.WriteCalls)
		out[prefix+"write_bytes"] = float64(c.WriteBytes)
		out[prefix+"write_ns"] = float64(c.WriteNs)
		out[prefix+"read_calls"] = float64(c.ReadCalls)
		out[prefix+"read_bytes"] = float64(c.ReadBytes)
		out[prefix+"read_ns"] = float64(c.ReadNs)
		out[prefix+"sync_calls"] = float64(c.SyncCalls)
	}
	io("vfs.", a.IO["all"].sub(b.IO["all"]))
	for _, cls := range ioClasses {
		io("vfs."+cls+".", a.IO[cls].sub(b.IO[cls]))
	}
	return out
}

// layerWindow sums the layer counts over the builds of the traced round and
// keeps the round's SF build, whose BuildResult.Stats feed the core,
// extsort and sidefile lines of the ledger.
type layerWindow struct {
	counts map[string]float64
	rows   int
	sf     *buildOut
}

func (w *layerWindow) add(out buildOut) {
	if w.counts == nil {
		w.counts = make(map[string]float64)
	}
	for k, v := range out.After.countsSince(out.Before) {
		w.counts[k] += v
	}
	w.rows += out.Rows
	if out.Method == onlineindex.SF {
		o := out
		w.sf = &o
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// report turns the window into the per-layer metrics that are counts over
// the traced build round (one offline, one NSF and one SF build with the
// workload's DML beside the online ones).
func (w *layerWindow) report(r *run) {
	c, m := w.counts, r.metrics
	for _, op := range []string{"write", "read"} {
		m["vfs."+op+"_calls"] = c["vfs."+op+"_calls"]
		m["vfs."+op+"_ms"] = c["vfs."+op+"_ns"] / 1e6
	}
	m["vfs.sync_calls"] = c["vfs.sync_calls"]
	m["vfs.write_bytes"] = c["vfs.write_bytes"]
	m["vfs.read_bytes"] = c["vfs.read_bytes"]
	for _, cls := range ioClasses {
		m["vfs."+cls+".write_bytes"] = c["vfs."+cls+".write_bytes"]
		m["vfs."+cls+".read_bytes"] = c["vfs."+cls+".read_bytes"]
	}
	m["wal.records"] = c["wal.records"]
	m["wal.forces"] = c["wal.forces"]
	m["wal.bytes_per_row"] = ratio(c["wal.bytes"], float64(w.rows))
	m["wal.group_batch_mean"] = ratio(c["wal.batch_sum"], c["wal.batch_count"])
	m["buffer.fetches"] = c["buffer.fetches"]
	m["buffer.evictions"] = c["buffer.evictions"]
	m["buffer.flushes"] = c["buffer.flushes"]
	m["buffer.hit_frac"] = ratio(c["buffer.hits"], c["buffer.fetches"])
	m["btree.splits"] = c["btree.splits"]
	m["lock.requests"] = c["lock.requests"]
	m["lock.waits"] = c["lock.waits"]
	m["lock.deadlocks"] = c["lock.deadlocks"]
	m["lock.wait_ms_total"] = c["lock.wait_ns_sum"] / 1e6

	// The round's SF build, from its BuildResult.Stats and its own deltas.
	st := w.sf.Res.Stats
	sfc := w.sf.After.countsSince(w.sf.Before)
	m["sidefile.appends"] = sfc["sidefile.appends"]
	m["sidefile.len_max"] = float64(st.SideFileLen)
	m["sidefile.apply_us_per_entry"] = ratio(float64(st.SideFile.Microseconds()), float64(st.SideFileApplied))
	m["sidefile.catchup_ms"] = ms(st.SideFile)
	m["extsort.runs"] = float64(st.Runs)
	m["extsort.merge_fanin"] = float64(st.Runs) // one merge pass over every run
	m["extsort.run_len_mean"] = ratio(sfc["extsort.run_len_sum"], sfc["extsort.run_len_count"])
	m["extsort.spill_bytes_per_row"] = ratio(float64(st.BytesSpilled), float64(w.sf.Rows))
	m["core.scan_sort_ms"] = ms(st.ScanSort)
	m["core.insert_ms"] = ms(st.Insert)
	m["core.side_file_ms"] = ms(st.SideFile)
	m["core.quiesce_wait_ms"] = ms(st.QuiesceWait)
	m["core.extract_busy_ms"] = ms(st.Pipeline.ExtractBusy)
	m["core.feed_wait_ms"] = ms(st.Pipeline.FeedWait)
	m["core.feed_busy_ms"] = ms(st.Pipeline.FeedBusy)
	m["core.keys_skipped"] = float64(st.KeysSkipped)
	m["core.checkpoints"] = float64(st.Checkpoints)
}

// goUsage is the Go runtime's and the process's resource use at one moment.
type goUsage struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readGoUsage() goUsage {
	var u goUsage
	runtime.ReadMemStats(&u.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// reportGo writes the go.* lines for a build of rows rows bracketed by two
// usage readings.
func reportGo(m map[string]float64, before, after goUsage, rows int) {
	m["go.allocs_per_row"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(rows))
	m["go.bytes_alloc_per_row"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), float64(rows))
	m["go.heap_peak_mb"] = float64(after.mem.HeapSys) / (1 << 20) // HeapSys only grows: the high-water mark so far
	m["go.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["go.cpu_s"] = (after.cpu - before.cpu).Seconds()
}
