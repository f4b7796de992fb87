// Package progress tracks an index build's completion fraction and ETA as a
// weighted state machine over the paper's phases: data scan → sort →
// merge/load → side-file catch-up → GC.
//
// The tracker is fed the same quantities the build's durable checkpoints
// record — the scan's page position (Current-RID's page for SF), the
// tournament/merge counter vectors, the side-file apply position — so a
// build resumed after a crash can seed the tracker from its last committed
// IBState and report a fraction that never falls behind what was durably
// done. Two mechanisms make the reported fraction monotone:
//
//   - a high-water mark within one incarnation (raw fractions can dip when
//     a phase's total grows, e.g. the SF chase-scan discovering appended
//     pages; the report clamps to the best fraction already shown);
//   - a resume floor across incarnations (seeded from the durable
//     checkpoint; the report never drops below it).
//
// The durable floor is also kept in units, per phase: the count the feed
// had reported when the last checkpoint committed. A feed that later
// reports fewer units of a phase than that is counted in Regressions — the
// feed and the checkpoint disagree about completed work, which the crash
// sweep asserts never happens. A total that grows after a checkpoint (the
// chase scan finding new pages, updaters appending side-file entries)
// lowers the raw fraction but takes no work back, so it is not counted.
package progress

import (
	"sync"
	"time"
)

// Phase identifies one build phase. Phases always advance in declaration
// order; a build registers only the phases its method has (NSF has no
// side-file catch-up).
type Phase uint8

const (
	// Scan is the data-page scan (overlapped with run generation by
	// replacement selection; its unit is data pages).
	Scan Phase = iota
	// Sort is the run-finalization step between the scan and the merge
	// (draining the tournament tree; unit: sorted runs closed).
	Sort
	// Load is the merge feeding either the NSF batch inserter or the SF
	// bottom-up loader (unit: keys).
	Load
	// SideFile is the SF catch-up pass over captured updates (unit:
	// side-file entries applied).
	SideFile
	// GC is the optional pseudo-deleted-key cleanup (unit: index pages).
	GC
	numPhases
)

var phaseNames = [numPhases]string{"scan", "sort", "load", "sidefile", "gc"}

// String returns the phase's lowercase name.
func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// DefaultWeights are the relative durations observed on the E1 benchmark
// (scan+sort dominated by page I/O and key extraction, load by tree writes,
// catch-up proportional to the concurrent update rate). Absent phases are
// dropped and the rest renormalized, so the numbers only fix the ratios.
var DefaultWeights = map[Phase]float64{
	Scan:     0.35,
	Sort:     0.05,
	Load:     0.40,
	SideFile: 0.15,
	GC:       0.05,
}

type phaseState struct {
	present  bool
	weight   float64 // normalized at New
	done     uint64
	total    uint64
	claimed  uint64 // the count the feed last reported, before clamping
	floor    uint64 // claimed at the last durable checkpoint (or the resume seed)
	finished bool
	started  time.Time // first Advance
	updated  time.Time // last Advance
}

// Tracker follows one build. All methods are safe for concurrent use; a nil
// *Tracker is a no-op on every method (builds run with tracking disabled
// exactly like they run with metrics disabled).
type Tracker struct {
	mu     sync.Mutex
	index  string
	method string

	phases  [numPhases]phaseState
	cur     Phase
	started time.Time

	high        float64 // high-water reported fraction (monotone report)
	durable     float64 // fraction at the last durable checkpoint
	resumeFloor float64 // durable fraction seeded at resume
	f0          float64 // fraction when this incarnation started (ETA base)
	regressions uint64
	complete    bool
}

// New creates a tracker for a build of the named index using the given
// phases (in order). Weights default to DefaultWeights renormalized over
// the registered subset.
func New(index, method string, phases ...Phase) *Tracker {
	t := &Tracker{index: index, method: method, started: time.Now()}
	var sum float64
	for _, p := range phases {
		sum += DefaultWeights[p]
	}
	if sum == 0 {
		sum = 1
	}
	for _, p := range phases {
		t.phases[p] = phaseState{present: true, weight: DefaultWeights[p] / sum}
	}
	return t
}

// SetTotal sets a phase's total work units. Totals only grow (the SF
// chase-scan extends the scan's page range; side-file appends extend the
// catch-up) and never fall below work already done.
func (t *Tracker) SetTotal(p Phase, total uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := &t.phases[p]
	if total > ps.total {
		ps.total = total
	}
	if ps.done > ps.total {
		ps.total = ps.done
	}
}

// Advance reports a phase's absolute completed-unit count. Counts are
// clamped monotone per phase; advancing a later phase finishes all earlier
// ones (the build moved on). Totals grow implicitly if done overtakes them.
func (t *Tracker) Advance(p Phase, done uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enterLocked(p)
	ps := &t.phases[p]
	now := time.Now()
	if ps.started.IsZero() {
		ps.started = now
	}
	ps.updated = now
	if done < ps.floor {
		t.regressions++ // fewer units than a durable checkpoint recorded
	}
	ps.claimed = done
	if done > ps.done {
		ps.done = done
	}
	if ps.done > ps.total {
		ps.total = ps.done
	}
	t.noteRawLocked()
}

// Step adds delta completed units to a phase (convenience over Advance for
// feeds that count incrementally).
func (t *Tracker) Step(p Phase, delta uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	done := t.phases[p].done + delta
	t.mu.Unlock()
	t.Advance(p, done)
}

// FinishPhase marks a phase complete (done = total, or 1/1 when the phase
// never learned a total — e.g. an empty table's scan).
func (t *Tracker) FinishPhase(p Phase) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enterLocked(p)
	ps := &t.phases[p]
	if ps.total == 0 {
		ps.total = 1
	}
	ps.done = ps.total
	ps.finished = true
	if t.cur == p && p+1 < numPhases {
		for q := p + 1; q < numPhases; q++ {
			if t.phases[q].present {
				t.cur = q
				break
			}
		}
	}
	t.noteRawLocked()
}

// enterLocked moves the current phase forward to p, finishing skipped ones.
func (t *Tracker) enterLocked(p Phase) {
	if p < t.cur {
		return // late sample from an earlier phase: counts still clamp
	}
	for q := t.cur; q < p; q++ {
		ps := &t.phases[q]
		if ps.present && !ps.finished {
			if ps.total == 0 {
				ps.total = 1
			}
			ps.done = ps.total
			ps.finished = true
		}
	}
	t.cur = p
}

// MarkDurable records the current fraction and each phase's reported count
// as durably checkpointed — called right after the builder's checkpoint
// transaction commits. A future resume may seed its floor from the same
// checkpoint, so the reported fraction can never fall behind this value
// again, and no feed may report fewer units.
func (t *Tracker) MarkDurable() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := range t.phases {
		t.phases[p].floor = t.phases[p].claimed
	}
	if f := t.rawLocked(); f > t.durable {
		t.durable = f
	}
}

// SeedResume installs the durable floor a resumed build starts from: the
// phase counts recorded in its last committed checkpoint (already applied
// via SetTotal/Advance) yield the floor fraction. The ETA restarts from
// here — elapsed time before the crash is unknowable and irrelevant.
func (t *Tracker) SeedResume() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := range t.phases {
		t.phases[p].floor = t.phases[p].done
	}
	f := t.rawLocked()
	t.resumeFloor = f
	t.durable = f
	t.f0 = f
	t.high = f
	t.started = time.Now()
}

// Complete marks the build finished: every phase done, fraction exactly 1.
func (t *Tracker) Complete() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := Phase(0); p < numPhases; p++ {
		ps := &t.phases[p]
		if ps.present && !ps.finished {
			if ps.total == 0 {
				ps.total = 1
			}
			ps.done = ps.total
			ps.finished = true
		}
	}
	t.complete = true
	t.high = 1
	t.durable = 1
}

// rawLocked computes the unclamped weighted fraction.
func (t *Tracker) rawLocked() float64 {
	var f float64
	for p := Phase(0); p < numPhases; p++ {
		ps := &t.phases[p]
		if !ps.present {
			continue
		}
		switch {
		case ps.finished:
			f += ps.weight
		case ps.total > 0:
			f += ps.weight * float64(ps.done) / float64(ps.total)
		}
	}
	if f > 1 {
		f = 1
	}
	return f
}

// noteRawLocked maintains the high-water mark.
func (t *Tracker) noteRawLocked() {
	if f := t.rawLocked(); f > t.high {
		t.high = f
	}
}

// Fraction returns the monotone reported completion fraction in [0, 1].
// Returns 0 on a nil tracker.
func (t *Tracker) Fraction() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fractionLocked()
}

func (t *Tracker) fractionLocked() float64 {
	if t.complete {
		return 1
	}
	f := t.rawLocked()
	if f < t.high {
		f = t.high
	}
	if f < t.resumeFloor {
		f = t.resumeFloor
	}
	return f
}

// Regressions returns how many feed updates reported fewer units of a
// phase than the last durable checkpoint (see Advance). Zero on a nil
// tracker.
func (t *Tracker) Regressions() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.regressions
}

// PhaseSnapshot is one phase's state in a Snapshot.
type PhaseSnapshot struct {
	Name     string  `json:"name"`
	Weight   float64 `json:"weight"`
	Done     uint64  `json:"done"`
	Total    uint64  `json:"total"`
	Fraction float64 `json:"fraction"`
	// RatePerSec is done/elapsed within the phase (0 before the phase
	// starts or when it finished instantaneously).
	RatePerSec float64 `json:"rate_per_sec"`
}

// Snapshot is a JSON-friendly point-in-time view of a build's progress.
type Snapshot struct {
	Index    string  `json:"index"`
	Method   string  `json:"method"`
	Phase    string  `json:"phase"`
	Fraction float64 `json:"fraction"`
	// Durable is the fraction covered by the last committed builder
	// checkpoint — the most a crash right now could cost.
	Durable     float64 `json:"durable"`
	ResumeFloor float64 `json:"resume_floor"`
	// ETASeconds extrapolates from the work completed by this incarnation;
	// -1 while there is too little signal to extrapolate from.
	ETASeconds     float64         `json:"eta_seconds"`
	ElapsedSeconds float64         `json:"elapsed_seconds"`
	Regressions    uint64          `json:"regressions"`
	Complete       bool            `json:"complete"`
	Phases         []PhaseSnapshot `json:"phases"`
}

// Snapshot returns the current view. The zero Snapshot on a nil tracker.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	s := Snapshot{
		Index:          t.index,
		Method:         t.method,
		Phase:          t.cur.String(),
		Fraction:       t.fractionLocked(),
		Durable:        t.durable,
		ResumeFloor:    t.resumeFloor,
		ElapsedSeconds: now.Sub(t.started).Seconds(),
		Regressions:    t.regressions,
		Complete:       t.complete,
		ETASeconds:     -1,
	}
	if s.Complete {
		s.ETASeconds = 0
	} else if f := s.Fraction; f > t.f0+1e-6 && s.ElapsedSeconds > 0 {
		s.ETASeconds = s.ElapsedSeconds * (1 - f) / (f - t.f0)
	}
	for p := Phase(0); p < numPhases; p++ {
		ps := &t.phases[p]
		if !ps.present {
			continue
		}
		psn := PhaseSnapshot{
			Name:   p.String(),
			Weight: ps.weight,
			Done:   ps.done,
			Total:  ps.total,
		}
		switch {
		case ps.finished:
			psn.Fraction = 1
		case ps.total > 0:
			psn.Fraction = float64(ps.done) / float64(ps.total)
		}
		if !ps.started.IsZero() {
			if el := ps.updated.Sub(ps.started).Seconds(); el > 0 {
				psn.RatePerSec = float64(ps.done) / el
			}
		}
		s.Phases = append(s.Phases, psn)
	}
	return s
}
