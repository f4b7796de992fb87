package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// machineRecord says where a set of numbers was taken. The times are this
// sandbox's (system calls and copies through the page cache), not a
// device's; fs_type is recorded because the page cache of a journalling file
// system and tmpfs do not cost the same.
type machineRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FSType     string  `json:"fs_type"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Rows       int     `json:"rows"`
	GitCommit  string  `json:"git_commit"`
}

func newMachineRecord(seed int64, scale float64, rows int, dataDir string) machineRecord {
	return machineRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		FSType: fsTypeOf(dataDir), Seed: seed, Scale: scale, Rows: rows, GitCommit: gitCommit(),
	}
}

// fsTypeOf names the file system holding dir from its statfs magic number.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) { //nolint:gosec // magic numbers fit 32 bits
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit reads the checked-out commit from .git without starting a
// process; the benchmark driver's checkout is not a git repository, where
// this is "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			b, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: ")))
			if err != nil {
				return "unknown"
			}
			return strings.TrimSpace(string(b))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
