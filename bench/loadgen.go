package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"onlineindex"
	"onlineindex/internal/workload"
)

const (
	tableName  = "orders"
	indexName  = "by_key"
	fillerLen  = 24
	keyColumn  = "key"
	insertPct  = 34 // insert/delete/update 34/33/33
	deletePct  = 33
	rollbackPc = 5
)

// genRow is one row the load generator knows: the populated rows first, in
// populate order, then every row it inserted.
type genRow struct {
	rid   onlineindex.RID
	alive bool
}

// genSample is what one activation of the generator measured.
type genSample struct {
	LatMs     []float64 // per operation: completion minus due time (see run)
	LateMs    []float64 // per operation: the generator's own wake-up lateness
	Attempted int
	Failed    int
	Errs      []string
}

// loadGen is the open-loop DML generator: one goroutine issuing
// single-operation transactions on a fixed schedule, whatever the engine's
// pace. Each operation is timed from the moment it was due, so a stall
// charges the operations queued behind it, and how late the generator itself
// woke is kept beside the latencies. All randomness comes from the seed; the
// engine sees only the generated rows and operations.
type loadGen struct {
	db     *onlineindex.DB
	rng    *rand.Rand
	n      int   // populated rows: handles [0,n)
	nextID int64 // id of the next generated row

	rows []genRow
	live []int32 // handles of live rows, for uniform choice

	stop atomic.Bool
	done chan genSample
}

func newLoadGen(db *onlineindex.DB, seed int64, idBase int64, rids []onlineindex.RID) *loadGen {
	g := &loadGen{
		db: db, rng: rand.New(rand.NewSource(seed)), n: len(rids),
		nextID: idBase + int64(len(rids)),
		rows:   make([]genRow, len(rids), len(rids)+len(rids)/4),
		live:   make([]int32, len(rids), len(rids)+len(rids)/4),
	}
	for i, rid := range rids {
		g.rows[i] = genRow{rid: rid, alive: true}
		g.live[i] = int32(i) //nolint:gosec // row counts are far below 2^31
	}
	return g
}

// liveRows is the table's current row count, as the generator has shaped it.
func (g *loadGen) liveRows() int { return len(g.live) }

// start launches the generator at rate transactions per second. With
// keyUpdatesOnly it re-keys uniformly chosen populated rows of the upper
// half of the id space (the serve phase's writer); otherwise it runs the
// insert/delete/update mix over all live rows with 5% rollbacks.
func (g *loadGen) start(rate int, keyUpdatesOnly bool) {
	g.stop.Store(false)
	g.done = make(chan genSample, 1) // holds the one result until stop collects it
	go func() { g.done <- g.run(rate, keyUpdatesOnly) }()
}

// halt stops the generator after its operation in flight and returns what
// it measured.
func (g *loadGen) halt() genSample {
	g.stop.Store(true)
	return <-g.done
}

func (g *loadGen) run(rate int, keyUpdatesOnly bool) genSample {
	var s genSample
	interval := time.Second / time.Duration(rate)
	begin := time.Now()
	prevFinished := begin
	for i := 0; !g.stop.Load(); i++ {
		due := begin.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			if g.stop.Load() {
				break
			}
		}
		started := time.Now()
		var err error
		if keyUpdatesOnly {
			err = g.rekeyUpperHalf()
		} else {
			err = g.mixedOp()
		}
		finished := time.Now()
		s.Attempted++
		if err != nil {
			s.Failed++
			if len(s.Errs) < 4 {
				s.Errs = append(s.Errs, err.Error())
			}
		}
		// An operation that was due while its predecessor still ran waited
		// for the engine, and is timed from its due time. One that was due
		// with the generator idle can only start late through the
		// generator's own wake-up (a sleeper on an idle processor is woken
		// by epoll_wait, whose timeout is whole milliseconds): that lateness
		// is the generator's error, kept apart in LateMs.
		if prevFinished.After(due) {
			s.LatMs = append(s.LatMs, float64(finished.Sub(due))/1e6)
			s.LateMs = append(s.LateMs, 0)
		} else {
			s.LatMs = append(s.LatMs, float64(finished.Sub(started))/1e6)
			s.LateMs = append(s.LateMs, float64(started.Sub(due))/1e6)
		}
		prevFinished = finished
	}
	return s
}

func (g *loadGen) newRow() onlineindex.Row {
	g.nextID++
	return workload.RowOf(g.nextID, fillerLen)
}

// mixedOp runs one transaction of the insert/delete/update mix.
func (g *loadGen) mixedOp() error {
	p := g.rng.Intn(100)
	rollback := g.rng.Intn(100) < rollbackPc
	tx := g.db.Begin()
	var apply func()
	var err error
	switch {
	case p < insertPct || len(g.live) == 0:
		var rid onlineindex.RID
		rid, err = g.db.Insert(tx, tableName, g.newRow())
		apply = func() {
			g.rows = append(g.rows, genRow{rid: rid, alive: true})
			g.live = append(g.live, int32(len(g.rows)-1)) //nolint:gosec // see newLoadGen
		}
	case p < insertPct+deletePct:
		k := g.rng.Intn(len(g.live))
		h := g.live[k]
		err = g.db.Delete(tx, tableName, g.rows[h].rid)
		apply = func() {
			g.rows[h].alive = false
			g.live[k] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
		}
	default:
		h := g.live[g.rng.Intn(len(g.live))]
		var rid onlineindex.RID
		rid, err = g.db.Update(tx, tableName, g.rows[h].rid, g.newRow())
		apply = func() { g.rows[h].rid = rid }
	}
	if err != nil {
		tx.Rollback() //nolint:errcheck // the operation's error is the one reported
		return err
	}
	if rollback {
		return tx.Rollback()
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	apply()
	return nil
}

// rekeyUpperHalf gives one live populated row of the upper half of the id
// space a fresh key.
func (g *loadGen) rekeyUpperHalf() error {
	half := g.n / 2
	h := -1
	for try := 0; try < 64; try++ {
		c := half + g.rng.Intn(g.n-half)
		if g.rows[c].alive {
			h = c
			break
		}
	}
	if h < 0 {
		return fmt.Errorf("loadgen: no live row found in the upper half")
	}
	tx := g.db.Begin()
	rid, err := g.db.Update(tx, tableName, g.rows[h].rid, g.newRow())
	if err != nil {
		tx.Rollback() //nolint:errcheck // the operation's error is the one reported
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	g.rows[h].rid = rid
	return nil
}
