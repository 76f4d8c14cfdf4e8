package artifact

import (
	"io"
	"os"
	"path/filepath"
)

// Staged is an output file being written beside its destination. A
// reader of the destination sees either the previous file or the whole
// new one, never a prefix: Commit makes the content durable before it
// renames it into place, and Abort discards it. Every CLI output, trace
// file, daemon spec and result, and log compaction installs through
// one.
type Staged struct {
	f    *os.File
	dest string
	done bool
}

// Stage creates a temp file next to dest (so the final rename stays on
// one filesystem) with mode 0644, the conventional artifact mode, not
// CreateTemp's 0600, and not umask-derived, since reading the umask
// portably needs process-global syscall.Umask flips.
func Stage(dest string) (*Staged, error) {
	f, err := os.CreateTemp(filepath.Dir(dest), filepath.Base(dest)+".tmp-*")
	if err != nil {
		return nil, err
	}
	s := &Staged{f: f, dest: dest}
	if err := f.Chmod(0o644); err != nil {
		s.Abort()
		return nil, err
	}
	return s, nil
}

// Write appends p to the staged content.
func (s *Staged) Write(p []byte) (int, error) { return s.f.Write(p) }

// Commit installs the staged content at the destination: fsync, close
// (a writeback that fails there, as on a full disk, must not install a
// truncated file) and rename. On failure the temp file is removed and
// the destination is left as it was.
func (s *Staged) Commit() error {
	s.done = true
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(s.f.Name(), s.dest)
	}
	if err != nil {
		os.Remove(s.f.Name())
	}
	return err
}

// Abort closes and removes the staged file, leaving the destination as
// it was. It is a no-op after Commit, so callers can defer it.
func (s *Staged) Abort() {
	if s.done {
		return
	}
	s.done = true
	s.f.Close()
	os.Remove(s.f.Name())
}

// WriteFile installs at dest whatever write produces, for callers that
// write their output in one go at the end.
func WriteFile(dest string, write func(io.Writer) error) error {
	s, err := Stage(dest)
	if err != nil {
		return err
	}
	defer s.Abort()
	if err := write(s); err != nil {
		return err
	}
	return s.Commit()
}
