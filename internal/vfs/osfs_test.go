package vfs

import (
	"bytes"
	"io"
	"testing"
)

// These tests run the crash-relevant slice of the VFS contract against the
// real OS filesystem (t.TempDir): the semantics the WAL tail parser and the
// recovery path assume — short reads with io.EOF at the tail, zero-filled
// holes, truncate visibility, independent handles aliasing one inode — must
// hold identically on OSFS and MemFS, or the crash sweep (which runs on
// MemFS/faultfs) proves nothing about real disks.

func TestOSFSReadAtTailSemantics(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	// Short read at the tail: data plus io.EOF, exactly like MemFS — the
	// WAL tail parser depends on this to find the torn point.
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 2)
	if n != 4 || err != io.EOF {
		t.Fatalf("tail read = %d, %v; want 4, EOF", n, err)
	}
	if string(buf[:n]) != "cdef" {
		t.Fatalf("tail read %q", buf[:n])
	}
	// Read at and past EOF.
	if n, err := f.ReadAt(buf, 6); n != 0 || err != io.EOF {
		t.Fatalf("read at EOF = %d, %v; want 0, EOF", n, err)
	}
	if n, err := f.ReadAt(buf, 100); n != 0 || err != io.EOF {
		t.Fatalf("read past EOF = %d, %v; want 0, EOF", n, err)
	}
}

func TestOSFSSparseWriteZeroFills(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("pagefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xAA}, 8192); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 8193 {
		t.Fatalf("size = %d, want 8193", sz)
	}
	hole := make([]byte, 4096)
	if _, err := f.ReadAt(hole, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 4096)) {
		t.Fatal("hole is not zero-filled")
	}
}

func TestOSFSTruncateDiscardsTail(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xFF}, 1000), 0); err != nil {
		t.Fatal(err)
	}
	// Shrink (restart repositioning of a reopened sort run), then extend:
	// the reappearing range must be zeros, not the old bytes.
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 100 {
		t.Fatalf("size after shrink = %d", sz)
	}
	if err := f.Truncate(200); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := f.ReadAt(buf, 100); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 100)) {
		t.Fatal("extended range is not zero-filled")
	}
}

func TestOSFSHandlesAliasOneInode(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := fs.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := fs.Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.WriteAt([]byte("through-a"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	if _, err := b.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "through-a" {
		t.Fatalf("handle b read %q", got)
	}
}
