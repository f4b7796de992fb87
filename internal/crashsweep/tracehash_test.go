package crashsweep

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"onlineindex/internal/faultfs"
	"onlineindex/internal/vfs"
)

// legacyTraceHashes pins the count-run I/O schedule of every scenario that
// predates the partition subsystem. The partition code paths (catalog
// registry, conditional snapshot section, router) must be invisible to an
// unpartitioned database: if one of these hashes moves, a legacy schedule
// changed and every historical (seed, point) reproduction recipe is silently
// invalidated. Regenerate deliberately with
//
//	SWEEP_TRACE_DUMP=1 go test ./internal/crashsweep -run TestDumpTraces -v
//
// and update the table only when the schedule change is intentional.
var legacyTraceHashes = map[string]struct {
	points uint64
	sha    string
}{
	"nsf":      {235, "54eb67b6770e87900148060219b2a114625f530dcbe31e464f1cc817fdfbd5df"},
	"sf":       {355, "c2ffb02261379f44a90520c772b7b7de988595389beab07f0e93da0e0b57003d"},
	"multi":    {381, "cfeb0b71d264dd6d2d3d38b196c6a652df84ebe4b14cc70dd3bcac70aea92181"},
	"sortpar":  {133, "e5b44a8d4d52701d0cd2eaab056605d381f31ac9bc997012d9e107b1384e069f"},
	"extsort":  {51, "7ab7611647755cade39795df7f75f6305b9a589f0f90180cad39be9c1114e588"},
	"readpath": {249, "df388ef36e1cb72459775b5edf33bf63b6da9737edc9f79b5dd6745290f8eb71"},
	"shard2":   {293, "73bf31517047821c09e4b5775736a181ff4f726ca628efa19dab3a0cb137b5ec"},
}

// TestLegacyTracesByteIdentical re-runs each legacy scenario's count run and
// compares the sha256 of its full op trace against the pinned value.
func TestLegacyTracesByteIdentical(t *testing.T) {
	for _, sc := range Scenarios() {
		want, pinned := legacyTraceHashes[sc.Name]
		if !pinned {
			continue // new scenario: its determinism is checked by the sweep itself
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			mem := vfs.NewMemFS()
			ffs := faultfs.Wrap(mem, faultfs.Config{Mode: faultfs.ModeCount, Trace: true})
			db, rids, err := openPopulated(ffs, sc)
			if err != nil {
				t.Fatalf("populate: %v", err)
			}
			ffs.Arm()
			if err := sc.Run(db, rids); err != nil {
				t.Fatalf("run: %v", err)
			}
			ffs.Disarm()
			if ffs.Points() != want.points {
				t.Errorf("fault points = %d, pinned %d", ffs.Points(), want.points)
			}
			h := sha256.New()
			for _, ev := range ffs.Trace() {
				fmt.Fprintf(h, "%v\n", ev)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want.sha {
				t.Errorf("trace hash = %s, pinned %s — a legacy I/O schedule changed; see legacyTraceHashes for the regeneration recipe", got, want.sha)
			}
		})
	}
}
