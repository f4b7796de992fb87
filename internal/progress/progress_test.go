package progress

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.SetTotal(Scan, 10)
	tr.Advance(Scan, 5)
	tr.Step(Load, 1)
	tr.FinishPhase(Scan)
	tr.MarkDurable()
	tr.SeedResume()
	tr.Complete()
	if tr.Fraction() != 0 || tr.Regressions() != 0 {
		t.Fatalf("nil tracker must read zero")
	}
	if s := tr.Snapshot(); s.Index != "" {
		t.Fatalf("nil tracker snapshot must be zero: %+v", s)
	}
}

func TestWeightsNormalize(t *testing.T) {
	tr := New("ix", "sf", Scan, Sort, Load, SideFile)
	var sum float64
	for _, ps := range tr.Snapshot().Phases {
		sum += ps.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
}

func TestFractionAdvancesThroughPhases(t *testing.T) {
	tr := New("ix", "nsf", Scan, Sort, Load)
	if f := tr.Fraction(); f != 0 {
		t.Fatalf("fresh tracker fraction = %v", f)
	}
	tr.SetTotal(Scan, 100)
	tr.Advance(Scan, 50)
	f1 := tr.Fraction()
	if f1 <= 0 || f1 >= 1 {
		t.Fatalf("mid-scan fraction = %v", f1)
	}
	tr.FinishPhase(Scan)
	tr.FinishPhase(Sort)
	f2 := tr.Fraction()
	if f2 <= f1 {
		t.Fatalf("fraction did not advance: %v -> %v", f1, f2)
	}
	tr.SetTotal(Load, 1000)
	tr.Advance(Load, 1000)
	tr.FinishPhase(Load)
	tr.Complete()
	if f := tr.Fraction(); f != 1 {
		t.Fatalf("complete fraction = %v, want 1", f)
	}
	if s := tr.Snapshot(); !s.Complete || s.ETASeconds != 0 {
		t.Fatalf("complete snapshot: %+v", s)
	}
}

func TestMonotoneUnderGrowingTotal(t *testing.T) {
	tr := New("ix", "sf", Scan, Load)
	tr.SetTotal(Scan, 100)
	tr.Advance(Scan, 90)
	f1 := tr.Fraction()
	// chase-scan discovers appended pages: the raw fraction would dip, the
	// reported one must not.
	tr.SetTotal(Scan, 200)
	f2 := tr.Fraction()
	if f2 < f1 {
		t.Fatalf("reported fraction regressed: %v -> %v", f1, f2)
	}
	tr.Advance(Scan, 200)
	if f := tr.Fraction(); f < f2 {
		t.Fatalf("reported fraction regressed: %v -> %v", f2, f)
	}
}

func TestAdvanceClampsBackwards(t *testing.T) {
	tr := New("ix", "nsf", Scan)
	tr.SetTotal(Scan, 10)
	tr.Advance(Scan, 7)
	tr.Advance(Scan, 3) // stale sample
	if got := tr.Snapshot().Phases[0].Done; got != 7 {
		t.Fatalf("done = %d, want clamped 7", got)
	}
}

func TestResumeFloor(t *testing.T) {
	// A resumed build seeds phase counts from the durable checkpoint, then
	// SeedResume turns them into a floor the report never drops below.
	tr := New("ix", "nsf", Scan, Sort, Load)
	tr.FinishPhase(Scan)
	tr.FinishPhase(Sort)
	tr.SetTotal(Load, 100)
	tr.Advance(Load, 40)
	tr.SeedResume()
	floor := tr.Fraction()
	if floor <= 0 {
		t.Fatalf("floor = %v", floor)
	}
	if s := tr.Snapshot(); s.ResumeFloor != floor || s.Durable != floor {
		t.Fatalf("snapshot floor mismatch: %+v", s)
	}
	// Feeds after resume may only push the report up.
	tr.Advance(Load, 41)
	if f := tr.Fraction(); f < floor {
		t.Fatalf("post-resume fraction %v below floor %v", f, floor)
	}
	if tr.Regressions() != 0 {
		t.Fatalf("unexpected regressions: %d", tr.Regressions())
	}
}

func TestRegressionCounter(t *testing.T) {
	tr := New("ix", "nsf", Load)
	tr.SetTotal(Load, 100)
	tr.Advance(Load, 50)
	tr.MarkDurable()
	// A total growing after MarkDurable drops the raw fraction below the
	// durable one, but takes no work back: the report clamps, and nothing
	// is counted.
	tr.SetTotal(Load, 1000)
	tr.Advance(Load, 51)
	if n := tr.Regressions(); n != 0 {
		t.Fatalf("a growing total counted as %d regressions", n)
	}
	if f := tr.Fraction(); f < 0.5 {
		t.Fatalf("reported fraction %v fell below durable 0.5", f)
	}
	// A feed reporting fewer units than the checkpoint recorded is counted.
	tr.Advance(Load, 49)
	if n := tr.Regressions(); n != 1 {
		t.Fatalf("report below the durable count: %d regressions, want 1", n)
	}
	// A report at or above the durable count, even below the high-water
	// count, is not.
	tr.Advance(Load, 50)
	if n := tr.Regressions(); n != 1 {
		t.Fatalf("report at the durable count: %d regressions, want 1", n)
	}
}

func TestMarkDurable(t *testing.T) {
	tr := New("ix", "sf", Scan, Load)
	tr.SetTotal(Scan, 10)
	tr.Advance(Scan, 5)
	tr.MarkDurable()
	s := tr.Snapshot()
	if s.Durable <= 0 || s.Durable > s.Fraction {
		t.Fatalf("durable = %v, fraction = %v", s.Durable, s.Fraction)
	}
}

func TestSnapshotJSON(t *testing.T) {
	tr := New("by_name", "sf", Scan, Sort, Load, SideFile)
	tr.SetTotal(Scan, 100)
	tr.Advance(Scan, 100)
	tr.FinishPhase(Scan)
	b, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Index != "by_name" || back.Method != "sf" || len(back.Phases) != 4 {
		t.Fatalf("round-trip: %+v", back)
	}
}

func TestConcurrentFeeds(t *testing.T) {
	tr := New("ix", "nsf", Scan, Load)
	tr.SetTotal(Scan, 1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Advance(Scan, uint64(i))
				tr.Fraction()
				if i%100 == 0 {
					tr.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Snapshot().Phases[0].Done; got != 999 {
		t.Fatalf("done = %d, want 999", got)
	}
}
