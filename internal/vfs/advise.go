package vfs

// ---------------------------------------------------------------------------
// sequential readahead hints
// ---------------------------------------------------------------------------

// SequentialReader is an optional File extension: AdviseSequential hints
// that the file is about to be read front to back, letting the backend ask
// the OS for aggressive readahead (posix_fadvise on Linux). Purely advisory;
// implementations must not change any visible state.
type SequentialReader interface {
	AdviseSequential()
}

// Advise issues the sequential-read hint if f's backend supports it. Safe to
// call on any File — a no-op otherwise.
func Advise(f File) {
	if s, ok := f.(SequentialReader); ok {
		s.AdviseSequential()
	}
}

// AdviseSequential implements SequentialReader for OS files.
func (o *osFile) AdviseSequential() { fadviseSequential(o.f.Fd()) }
