package extsort

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"onlineindex/internal/enc"
	"onlineindex/internal/vfs"
)

// ErrNoProgress is returned when a vfs ReadAt repeatedly reports no bytes
// and no error. A correct vfs.File never does this (ReadAt must return
// io.EOF or data), so the retry is bounded rather than infinite.
var ErrNoProgress = errors.New("extsort: read made no progress")

// noProgressLimit bounds consecutive (0, nil) ReadAt results before the
// reader gives up with ErrNoProgress.
const noProgressLimit = 8

// RunMeta describes one sorted run file: its name, how many items it holds,
// its byte length, and its highest (last) item. This is exactly what the
// sort-phase checkpoint records per stream ("file names, etc." plus, for the
// last stream, "the value of the highest key that was output", §5.1).
//
// High doubles as the delta predecessor of the run format: it is the last
// item written, so a writer reopened from a checkpoint can resume
// prefix-delta encoding against it without any extra durable state.
type RunMeta struct {
	Name  string
	Count uint64
	Bytes int64
	High  []byte
}

func (m RunMeta) encode(w *enc.Writer) {
	w.String32(m.Name).U64(m.Count).U64(uint64(m.Bytes)).Bytes32(m.High)
}

func decodeRunMeta(r *enc.Reader) RunMeta {
	return RunMeta{Name: r.String32(), Count: r.U64(), Bytes: int64(r.U64()), High: r.Bytes32()}
}

// Run file format: a sequence of [uint16 LE shared][uint16 LE suffixLen]
// [suffix] records, where shared is the byte length of the prefix this item
// has in common with the previous item in the run (0 for the first item)
// and suffix is the remainder. Because items are memcmp-comparable keyenc
// encodings followed by the RID suffix, reconstruction (prev[:shared] +
// suffix) preserves order exactly.

// commonPrefixLen returns the length of the longest common prefix of a and b.
func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// runWriter appends items to a run file.
type runWriter struct {
	f    vfs.File
	meta RunMeta
	buf  []byte // pending bytes not yet written through
}

func createRun(fs vfs.FS, name string) (*runWriter, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &runWriter{f: f, meta: RunMeta{Name: name}}, nil
}

// reopenRun opens an existing run for appending, truncating it to the
// checkpointed state first (restart: "reposition the last sorted output
// stream ... to the end of file position recorded in the checkpoint").
// meta.High seeds the delta predecessor.
func reopenRun(fs vfs.FS, meta RunMeta) (*runWriter, error) {
	f, err := fs.Open(meta.Name)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(meta.Bytes); err != nil {
		f.Close()
		return nil, err
	}
	return &runWriter{f: f, meta: meta}, nil
}

func (w *runWriter) add(item []byte) error {
	shared := commonPrefixLen(w.meta.High, item)
	if w.meta.Count == 0 && w.meta.Bytes == 0 && len(w.buf) == 0 {
		shared = 0 // a stale High from a recycled meta must not leak in
	}
	if shared > 0xffff {
		shared = 0xffff
	}
	suffix := item[shared:]
	if len(suffix) > 0xffff {
		return fmt.Errorf("extsort: item suffix %d bytes exceeds the run record limit", len(suffix))
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(shared))
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(suffix)))
	w.buf = append(w.buf, suffix...)
	w.meta.Count++
	w.meta.High = append(w.meta.High[:0], item...)
	if len(w.buf) >= 1<<16 {
		return w.flush()
	}
	return nil
}

func (w *runWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf, w.meta.Bytes); err != nil {
		return err
	}
	w.meta.Bytes += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// force flushes and fsyncs the run file (checkpoint durability).
func (w *runWriter) force() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *runWriter) close() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.f.Close()
}

// runReader streams items from a run file through a read buffer.
type runReader struct {
	f      vfs.File
	off    int64
	rdbuf  []byte
	bufOff int64 // file offset of rdbuf[0]
	count  uint64
	items  [2][]byte // item buffers, alternated so the last item outlives the next read
	cur    int       // index into items of the last item returned
	chunk  []byte    // fill's reusable read buffer
}

func openRun(fs vfs.FS, meta RunMeta) (*runReader, error) {
	f, err := fs.Open(meta.Name)
	if err != nil {
		return nil, err
	}
	vfs.Advise(f) // runs are consumed front to back; ask the OS for readahead
	return &runReader{f: f}, nil
}

// next returns the next item, or ok=false at end of run. The item lives in
// one of the reader's two buffers and stays valid until the call after
// next; the other buffer holds the predecessor that prev[:shared] + suffix
// reconstitutes against.
func (r *runReader) next() ([]byte, bool, error) {
	hdr, err := r.read(4)
	if err == io.EOF {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	shared := int(binary.LittleEndian.Uint16(hdr[0:2]))
	sufLen := int(binary.LittleEndian.Uint16(hdr[2:4]))
	prev := r.items[r.cur]
	if r.count == 0 {
		prev = nil // the first item of a run has no predecessor
	}
	if shared > len(prev) {
		return nil, false, fmt.Errorf("extsort: corrupt run: shared %d > prev %d", shared, len(prev))
	}
	suffix, err := r.read(sufLen)
	if err != nil {
		return nil, false, fmt.Errorf("extsort: truncated run item: %w", err)
	}
	r.cur ^= 1
	out := append(append(r.items[r.cur][:0], prev[:shared]...), suffix...)
	r.items[r.cur] = out
	r.count++
	return out, true, nil
}

// skip advances past k items (restart repositioning by counter value).
func (r *runReader) skip(k uint64) error {
	for i := uint64(0); i < k; i++ {
		if _, ok, err := r.next(); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("extsort: skip %d past end of run at %d", k, i)
		}
	}
	return nil
}

const readChunk = 1 << 16

// fill appends at least one more byte to rdbuf or reports why it cannot:
// io.EOF at a clean end of file, ErrNoProgress after repeated empty
// errorless reads, any other error verbatim.
func (r *runReader) fill() error {
	if r.chunk == nil {
		r.chunk = make([]byte, readChunk)
	}
	for stalls := 0; ; {
		m, err := r.f.ReadAt(r.chunk, r.bufOff+int64(len(r.rdbuf)))
		if m > 0 {
			r.rdbuf = append(r.rdbuf, r.chunk[:m]...)
			return nil
		}
		if err == nil {
			if stalls++; stalls >= noProgressLimit {
				return fmt.Errorf("%w: %s at offset %d", ErrNoProgress, r.f.Name(), r.bufOff+int64(len(r.rdbuf)))
			}
			continue
		}
		return err
	}
}

// read returns n bytes at the current offset, buffering reads.
func (r *runReader) read(n int) ([]byte, error) {
	for int64(len(r.rdbuf)) < r.off-r.bufOff+int64(n) {
		// Need more data: refill the window starting at r.off.
		if r.off > r.bufOff && len(r.rdbuf) > 0 {
			r.rdbuf = append(r.rdbuf[:0], r.rdbuf[r.off-r.bufOff:]...)
			r.bufOff = r.off
		}
		if err := r.fill(); err != nil {
			if err == io.EOF && int64(len(r.rdbuf)) >= r.off-r.bufOff+int64(n) {
				break
			}
			return nil, err
		}
	}
	start := r.off - r.bufOff
	r.off += int64(n)
	return r.rdbuf[start : start+int64(n)], nil
}

func (r *runReader) close() error {
	return r.f.Close()
}
