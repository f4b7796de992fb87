package main

import (
	"errors"
	"fmt"
	"time"

	"onlineindex"
	"onlineindex/internal/engine"
	"onlineindex/internal/vfs"
)

var errBuildSurvivedCrashPoint = errors.New("build completed before the crash point")

// restartPhase prices the restartable build. Per online method, one
// uninterrupted checkpointing build gives the number of builder checkpoints
// and the keys extracted and inserted; then the same build is crashed at the
// middle checkpoint (from Options.OnCheckpoint, on the builder's goroutine,
// never from a timer), recovered and resumed, timed from the crash to the
// complete index and verified. resume_redo_frac is the keys the resumed
// build extracted and inserted over the uninterrupted build's; a change that
// checkpoints less often to build faster moves the crash point's state
// further from the crash and shows here.
func (r *run) restartPhase() error {
	phase := r.rec.start("restart", r.root)
	opts := r.buildOpts(true)
	type plan struct {
		method  onlineindex.BuildMethod
		crashAt uint64
		work    uint64
	}
	var plans []plan
	for _, m := range []onlineindex.BuildMethod{onlineindex.NSF, onlineindex.SF} {
		out, err := r.build(phase, "build:"+methodNames[m]+":calibrate", m, opts, 0)
		if err != nil {
			return err
		}
		st := out.Res.Stats
		plans = append(plans, plan{m, max(1, st.Checkpoints/2), st.KeysExtracted + st.KeysInserted})
		if err := r.drop(); err != nil {
			return err
		}
	}

	resumeS := make([][]float64, len(plans)) // per plan: NSF and SF resumes do not take the same time
	var redo []float64
	maxReps := 3
	if r.traced {
		maxReps = 1
	}
	var repDur time.Duration
	for rep := 0; rep < maxReps; rep++ {
		if rep > 0 && time.Now().Add(repDur).After(r.deadline(r.reg.RestartShare)) {
			break
		}
		t0 := time.Now()
		for i, p := range plans {
			label := fmt.Sprintf("resume:%s:%d", methodNames[p.method], rep)
			sp := r.rec.start(label, phase)
			secs, redone, err := r.crashAndResume(p.method, opts, p.crashAt)
			r.rec.end(sp, map[string]float64{"crash_at_checkpoint": float64(p.crashAt), "keys_redone": float64(redone)})
			if !r.ok(label, err) {
				return err
			}
			resumeS[i] = append(resumeS[i], secs)
			redo = append(redo, float64(redone)/float64(p.work))
			if err := r.verify(label); err != nil {
				return err
			}
			if err := r.drop(); err != nil {
				return err
			}
		}
		repDur = time.Since(t0)
	}
	r.rec.end(phase, nil)
	nsf, sf := summarize(resumeS[0]), summarize(resumeS[1])
	r.metrics["resume_s"] = (nsf.Med + sf.Med) / 2
	r.metrics["resume_redo_frac"] = median(redo)
	r.notef("resume_s %.4f: mean of the NSF median %.4f and the SF median %.4f (n=%d each); resume_redo_frac %.6f (per resume %v)",
		r.metrics["resume_s"], nsf.Med, sf.Med, nsf.N, r.metrics["resume_redo_frac"], redo)
	return nil
}

// crashAndResume starts a build, fails the system at its crashAt-th builder
// checkpoint, and brings the database back: restart recovery, then the
// interrupted build resumed from its last checkpoint. It returns the seconds
// from the crash to the complete index and the keys the resumed build
// extracted and inserted. r.db is the recovered database afterwards.
func (r *run) crashAndResume(method onlineindex.BuildMethod, opts onlineindex.BuildOptions, crashAt uint64) (float64, uint64, error) {
	if err := r.settle(); err != nil {
		return 0, 0, err
	}
	var seen uint64
	crashing := opts
	crashing.OnCheckpoint = func(engine.IBPhase) error {
		seen++
		if seen < crashAt {
			return nil
		}
		// On a host directory this is a process kill: the engine's volatile
		// state (buffer pool, log tail, lock table) is gone, the files keep
		// what was written to them.
		r.db.Crash()
		return vfs.ErrCrashed
	}
	_, err := r.db.BuildIndex(r.spec(method), crashing)
	if err == nil {
		return 0, 0, errBuildSurvivedCrashPoint
	}
	if !errors.Is(err, vfs.ErrCrashed) {
		return 0, 0, err
	}

	t0 := time.Now()
	db, err := onlineindex.RecoverWithoutResume(onlineindex.Config{FS: r.tfs, PoolSize: r.reg.PoolSize})
	if err != nil {
		return 0, 0, fmt.Errorf("restart recovery: %w", err)
	}
	r.db, r.gen.db = db, db
	pending, err := db.PendingBuilds()
	if err != nil {
		return 0, 0, err
	}
	if len(pending) != 1 {
		return 0, 0, fmt.Errorf("%d interrupted builds after restart, want 1", len(pending))
	}
	res, err := db.ResumeBuild(pending[0], opts)
	if err != nil {
		return 0, 0, fmt.Errorf("resume: %w", err)
	}
	secs := time.Since(t0).Seconds()
	r.lastIndex = res.Index
	r.tfs.setClass(pageFileName(res.Index.FileID), "tree")
	return secs, res.Stats.KeysExtracted + res.Stats.KeysInserted, nil
}
