package crashsweep

import (
	"strings"
	"testing"

	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
	"onlineindex/internal/faultfs"
	"onlineindex/internal/partition"
	"onlineindex/internal/types"
	"onlineindex/internal/vfs"
)

// TestCrashBetweenShardDescriptors crashes a two-shard unique fan-out build
// at every point from its first shard descriptor to its first sort-run
// write, and requires the partition oracle (FinishPending, then tree
// invariants, heap consistency and the offline differential per shard, and
// the cross-shard audit) to converge at each. For SF every descriptor
// commits on its own, so some point must recover with shard 0's descriptor
// durable and shard 1's missing. For NSF one transaction creates both under
// the quiesce of both shard tables: a crash leaves both or neither.
func TestCrashBetweenShardDescriptors(t *testing.T) {
	for _, method := range []catalog.BuildMethod{catalog.MethodSF, catalog.MethodNSF} {
		t.Run(method.String(), func(t *testing.T) {
			sc := *ScenarioByName("part2")
			spec := sc.Specs[0]
			spec.Method = method
			sc.Specs = []engine.CreateIndexSpec{spec}
			sc.Run = func(db *engine.DB, rids []types.RID) error {
				opts := sc.Opts
				opts.OnCheckpoint = observer(partition.NewRouter(db), rids)
				_, err := partition.Build(db, spec, partition.BuildOptions{Options: opts, Serial: true})
				return err
			}

			mem := vfs.NewMemFS()
			ffs := faultfs.Wrap(mem, faultfs.Config{Mode: faultfs.ModeCount, Trace: true})
			db, rids, err := openPopulated(ffs, &sc)
			if err != nil {
				t.Fatal(err)
			}
			ffs.Arm()
			if err := sc.Run(db, rids); err != nil {
				t.Fatal(err)
			}
			ffs.Disarm()
			trace := ffs.Trace()
			var first, last uint64
			for _, ev := range trace {
				if first == 0 && ev.Op == faultfs.OpCreate {
					first = ev.K
				}
				if strings.HasPrefix(ev.Name, "ib-") {
					last = ev.K
					break
				}
			}
			if first == 0 || last <= first {
				t.Fatalf("no descriptor window in the trace (first create %d, first run write %d)", first, last)
			}
			halfway := 0
			for k := first; k <= last; k++ {
				pr, err := replay(&sc, 1, faultfs.ModeCrash, k, trace)
				if err != nil {
					t.Fatalf("crash at point %d (%v %s): %v", k, trace[k-1].Op, trace[k-1].Name, err)
				}
				if pr.Resumed == 1 {
					halfway++
				}
			}
			t.Logf("points %d..%d verified, %d with one shard descriptor durable", first, last, halfway)
			if method == catalog.MethodSF && halfway == 0 {
				t.Fatalf("no crash point in [%d, %d] recovered one shard descriptor without the other", first, last)
			}
			if method == catalog.MethodNSF && halfway != 0 {
				t.Fatalf("%d crash points recovered one NSF shard descriptor without the other", halfway)
			}
		})
	}
}
