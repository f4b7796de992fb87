package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a benchmark phase, a build, a
// ledger stage or a layer probe. Parent is the ID of the span that caused it
// (0 only for the workload's root span); all spans of one run share the
// workload name as their identifier. Counts holds the registry and Stats()
// deltas observed across the span, so ratios are measured where the work
// happens.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced runs share the traced runs' code paths without
// paying for them.
type recorder struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []*span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// start opens a child of parent (nil parent: the root span).
func (r *recorder) start(name string, parent *span) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans) + 1, Name: name, Workload: r.workload, StartNs: time.Since(r.origin).Nanoseconds()}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, s)
	return s
}

// end closes s and attaches counts (may be nil).
func (r *recorder) end(s *span, counts map[string]float64) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.EndNs = time.Since(r.origin).Nanoseconds()
	s.Counts = counts
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.spans))
	for i, s := range r.spans {
		out[i] = *s
	}
	return out
}

// writeFile dumps the spans with the machine record they were taken on.
func (r *recorder) writeFile(path string, m machineRecord) error {
	doc := struct {
		Machine machineRecord `json:"machine"`
		Spans   []span        `json:"spans"`
	}{m, r.snapshot()}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns, per span name, the span durations minus the part their
// child spans cover: the time spent in the layer itself.
func selfTimes(spans []span) map[string]time.Duration {
	childNs := make(map[int]int64)
	for _, s := range spans {
		childNs[s.Parent] += s.EndNs - s.StartNs
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - childNs[s.ID])
	}
	return out
}
