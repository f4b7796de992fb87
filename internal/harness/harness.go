// Package harness provides the measurement and reporting utilities the
// experiment suite shares: index clustering measurement, log-volume deltas,
// and fixed-width table rendering for the benchtab tool and EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"
	"time"

	"onlineindex/internal/btree"
	"onlineindex/internal/engine"
	"onlineindex/internal/metrics"
	"onlineindex/internal/types"
)

// PipelineStats splits a build's scan time by step: key extraction and the
// sorter feed. The builders accumulate one per build so E1's scan/sort
// phase breakdown stays honest (the wall-clock ScanSort timer alone cannot
// say where the time went).
type PipelineStats struct {
	// ExtractBusy is the time spent decoding records and encoding their
	// sort items.
	ExtractBusy time.Duration
	// FeedWait is how long the sorter feed sat waiting for extracted
	// pages. The scan extracts and feeds on one goroutine, so it stays 0;
	// the field remains for readers that report it.
	FeedWait time.Duration
	// FeedBusy is the time spent pushing items into the sorters.
	FeedBusy time.Duration
}

// Merge folds another scan's counters into p (a build may run several scan
// ranges: checkpointed resumes, the SF end-chasing loop).
func (p *PipelineStats) Merge(q PipelineStats) {
	p.ExtractBusy += q.ExtractBusy
	p.FeedWait += q.FeedWait
	p.FeedBusy += q.FeedBusy
}

// Export publishes one scan's pipeline counters into the engine's metrics
// registry, so PipelineStats and the registry count through one mechanism.
// A nil registry (metrics disabled) is a no-op.
func (p PipelineStats) Export(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.Counter("pipeline.extract_busy_ns").Add(uint64(p.ExtractBusy))
	r.Counter("pipeline.feed_wait_ns").Add(uint64(p.FeedWait))
	r.Counter("pipeline.feed_busy_ns").Add(uint64(p.FeedBusy))
}

// ClusteringFactor measures how physically sequential an index's leaf chain
// is: the fraction of leaf-to-leaf transitions (in key order) whose page
// numbers ascend. A perfectly bottom-up-built index scores 1.0 ("consecutive
// keys being on consecutive pages on disk", §4); interference from
// concurrent updates drives it down — the quantity the paper says "needs to
// be quantified for both algorithms".
func ClusteringFactor(tree *btree.Tree) (float64, error) {
	pages, err := tree.LeafPages()
	if err != nil {
		return 0, err
	}
	if len(pages) < 2 {
		return 1, nil
	}
	asc := 0
	for i := 1; i < len(pages); i++ {
		if pages[i] > pages[i-1] {
			asc++
		}
	}
	return float64(asc) / float64(len(pages)-1), nil
}

// IndexClustering looks the index up by name and measures it.
func IndexClustering(db *engine.DB, index string) (float64, error) {
	ix, ok := db.Catalog().Index(index)
	if !ok {
		return 0, fmt.Errorf("harness: no index %q", index)
	}
	tree, err := db.TreeOf(ix.ID)
	if err != nil {
		return 0, err
	}
	return ClusteringFactor(tree)
}

// IndexPages returns the page count of an index file.
func IndexPages(db *engine.DB, index string) (types.PageNum, error) {
	ix, ok := db.Catalog().Index(index)
	if !ok {
		return 0, fmt.Errorf("harness: no index %q", index)
	}
	tree, err := db.TreeOf(ix.ID)
	if err != nil {
		return 0, err
	}
	return tree.PageCount()
}

// Table renders rows as a fixed-width text table.
func Table(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(headers)
	seps := make([]string, len(headers))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// F formats a float compactly.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// D formats a duration in milliseconds.
func D(v interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.1fms", v.Seconds()*1000)
}

// N formats an integer-ish count with thousands grouping.
func N(v uint64) string {
	s := fmt.Sprintf("%d", v)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
