package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"onlineindex"
	"onlineindex/internal/btree"
	"onlineindex/internal/types"
	"onlineindex/internal/workload"
)

// quietBuild builds by_key with SF and no DML on the table as populated,
// measuring how much the data directory grew. The index stays for the serve
// phase.
//
// A traced run does it six times: three through the counting decorator and
// three with the decorator forwarding untouched, in the order T U U T T U so
// that neither kind always follows the other. The ratio of the two medians
// is what tracing costs, and the untraced median is the build time the
// ledger is held against.
func (r *run) quietBuild() error {
	phase := r.rec.start("quiet_build", r.root)
	opts := r.buildOpts(false)
	counting := []bool{false}
	if r.traced {
		counting = []bool{true, false, false, true, true, false}
	}
	var tracedS, quietS []float64
	var out buildOut
	var grew int64
	for i, on := range counting {
		r.tfs.enabled.Store(on)
		if err := r.settle(); err != nil {
			return err
		}
		size0, err := dirBytes(r.rawFS)
		if err != nil {
			return err
		}
		label, before := fmt.Sprintf("build:sf:quiet:%d", i), goUsage{}
		if on {
			label, before = fmt.Sprintf("build:sf:traced:%d", i), readGoUsage()
		}
		out, err = r.build(phase, label, onlineindex.SF, opts, 0)
		if err != nil {
			return err
		}
		if on {
			if len(tracedS) == 0 {
				reportGo(r.metrics, before, readGoUsage(), out.Rows)
			}
			tracedS = append(tracedS, out.Dur.Seconds())
		} else {
			quietS = append(quietS, out.Dur.Seconds())
		}
		if err := r.settle(); err != nil {
			return err
		}
		size1, err := dirBytes(r.rawFS)
		if err != nil {
			return err
		}
		grew = size1 - size0
		if i < len(counting)-1 {
			if err := r.drop(); err != nil {
				return err
			}
		}
	}
	r.tfs.enabled.Store(r.traced)
	r.rec.end(phase, nil)
	r.metrics["build_disk_bytes_per_row"] = float64(grew) / float64(out.Rows)
	r.notef("build_disk_bytes_per_row %.4f (%d bytes over %d rows, quiet SF build in %.3fs)",
		r.metrics["build_disk_bytes_per_row"], grew, out.Rows, out.Dur.Seconds())
	if r.traced {
		r.quietSF = time.Duration(median(quietS) * float64(time.Second))
		r.metrics["bench.trace_overhead_frac"] = median(tracedS)/median(quietS) - 1
		r.notef("quiet SF build: traced %.3f s, untraced %.3f s (medians of %d each)", median(tracedS), median(quietS), len(quietS))
		return r.treeShape(out)
	}
	return nil
}

// treeShape reports the height, fill and size of the SF-built tree.
func (r *run) treeShape(out buildOut) error {
	tree, err := r.db.Engine().TreeOf(out.Res.Index.ID)
	if err != nil {
		return err
	}
	height, err := tree.Height()
	if err != nil {
		return err
	}
	pages, err := tree.PageCount()
	if err != nil {
		return err
	}
	leaves, err := tree.LeafPages()
	if err != nil {
		return err
	}
	const pageSize = 8192
	var used int
	pool := r.db.Engine().Pool()
	for _, pg := range leaves {
		f, err := pool.Fetch(types.PageID{File: tree.FileID(), Page: pg})
		if err != nil {
			return err
		}
		used += f.Page().(*btree.Node).UsedBytes()
		pool.Unpin(f)
	}
	r.metrics["btree.height"] = float64(height)
	r.metrics["btree.leaf_fill_frac"] = ratio(float64(used), float64(len(leaves)*pageSize))
	r.metrics["btree.index_bytes_per_row"] = ratio(float64(pages)*pageSize, float64(out.Rows))
	return nil
}

// serve runs one closed-loop reader (95% point lookups on Zipf(1.1)-chosen
// rows, 5% scans of 100 entries) beside one open-loop writer re-keying rows
// of the upper half of the id space, for the workload's share of the
// measuring time. Lookups of lower-half rows, which nothing has written
// since populate, must return exactly their populate-time RID.
func (r *run) serve() error {
	phase := r.rec.start("serve", r.root)
	var before layerSnap
	if r.traced {
		before = r.snapLayers()
	}
	dur := time.Duration(r.reg.ServeShare * r.seconds * float64(time.Second))
	n := len(r.popRIDs)
	rng := rand.New(rand.NewSource(r.seed ^ 0x5e7e))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1)) //nolint:gosec // n >= 1
	// Spread the hot ranks over the table: rank k reads row (k*stride) mod n.
	stride := coprimeStride(n)
	rowOfRank := func() int { return int(zipf.Uint64() * uint64(stride) % uint64(n)) } //nolint:gosec // stride, n > 0

	// Throughput and the lookup tail are medians over windows, so that a
	// pause (garbage collection, a journal commit under the writer) costs one
	// window, not the number.
	const window = 250 * time.Millisecond
	windows := max(1, int(dur/window))
	lookupUsIn := make([][]float64, windows)
	scanRowsIn := make([]float64, windows)
	var scans, scanRows int
	r.gen.start(r.reg.WriteRate, true)
	begin := time.Now()
	for {
		t0 := time.Now()
		wi := int(t0.Sub(begin) / window)
		if wi >= windows {
			break
		}
		h := rowOfRank()
		key := onlineindex.String(workload.KeyOf(r.idBase + int64(h)))
		if rng.Intn(100) < 5 {
			rows, err := r.scan100(key)
			r.ok("scan", err)
			scans++
			scanRows += rows
			scanRowsIn[wi] += float64(rows)
			continue
		}
		tx := r.db.Begin()
		rids, err := r.db.Lookup(tx, indexName, key)
		tx.Rollback() //nolint:errcheck // read-only: nothing to undo, locks are released either way
		lookupUsIn[wi] = append(lookupUsIn[wi], float64(time.Since(t0))/1e3)
		if err == nil && h < n/2 && (len(rids) != 1 || rids[0] != r.popRIDs[h]) {
			err = fmt.Errorf("row %d: got %v, populated at %v", h, rids, r.popRIDs[h])
		}
		r.ok("lookup", err)
	}
	elapsed := time.Since(begin)
	w := r.gen.halt()
	r.absorb("serve writer", w)
	if r.traced {
		c := r.snapLayers().countsSince(before)
		r.metrics["readcache.hit_frac"] = ratio(c["readcache.hits"], c["readcache.hits"]+c["readcache.misses"])
		r.metrics["readcache.invalidations"] = c["readcache.invalidations"]
		r.rec.end(phase, c)
	}

	lookups, minBeyond := 0, 0
	lookupsIn, p99In := make([]float64, windows), make([]float64, windows)
	for i, us := range lookupUsIn {
		var beyond int
		p99In[i], beyond = percentile(us, 99)
		if i == 0 || beyond < minBeyond {
			minBeyond = beyond
		}
		lookupsIn[i] = float64(len(us))
		lookups += len(us)
	}
	p50, _ := percentile(w.LatMs, 50)
	perSec := float64(time.Second) / float64(window)
	lk, sc, tail := summarize(lookupsIn), summarize(scanRowsIn), summarize(p99In)
	r.metrics["lookup_per_s"] = lk.Med * perSec
	r.metrics["lookup_p99_us"] = tail.Med
	r.metrics["scan_rows_per_s"] = sc.Med * perSec
	r.metrics["serve_write_p50_ms"] = p50
	r.notef("serve %.2fs in %d windows: lookup_per_s median %.0f (q1 %.0f q3 %.0f), scan_rows_per_s median %.0f (q1 %.0f q3 %.0f)",
		elapsed.Seconds(), windows, lk.Med*perSec, lk.Q1*perSec, lk.Q3*perSec, sc.Med*perSec, sc.Q1*perSec, sc.Q3*perSec)
	r.notef("serve: %d lookups, per-window p99 median %.1f us (q1 %.1f q3 %.1f, >= %d beyond in each), %d scans of %d rows, %d writes (p50 %.3f ms) at %d txn/s",
		lookups, tail.Med, tail.Q1, tail.Q3, minBeyond, scans, scanRows, len(w.LatMs), p50, r.reg.WriteRate)
	return nil
}

// scan100 reads up to 100 index entries from key upward and checks that
// they come back in key order.
func (r *run) scan100(key onlineindex.Value) (int, error) {
	tx := r.db.Begin()
	defer tx.Rollback() //nolint:errcheck // read-only
	var prev []byte
	rows, ordered := 0, true
	err := r.db.Scan(tx, indexName, []onlineindex.Value{key}, nil, func(k []byte, _ onlineindex.RID) bool {
		if prev != nil && bytes.Compare(prev, k) > 0 {
			ordered = false
		}
		prev = append(prev[:0], k...)
		rows++
		return rows < 100
	})
	if err == nil && !ordered {
		err = fmt.Errorf("scan from %v returned keys out of order", key)
	}
	return rows, err
}

// coprimeStride returns a multiplier near n*0.618 that shares no factor with
// n, so k -> k*stride mod n visits every row.
func coprimeStride(n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	s := n*618/1000 + 1
	for gcd(s, n) != 1 {
		s++
	}
	return s
}
