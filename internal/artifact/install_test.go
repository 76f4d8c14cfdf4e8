package artifact

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// noLitter fails the test if any staging file is left in dir.
func noLitter(t *testing.T, dir string) {
	t.Helper()
	if m, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(m) > 0 {
		t.Fatalf("staging files left behind: %v", m)
	}
}

// A commit installs exactly the staged bytes at mode 0644, replacing
// any previous file, and an Abort after it changes nothing.
func TestStageCommitInstalls(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "out.json")
	if err := os.WriteFile(dest, []byte("previous"), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Stage(dest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(s, "new content\n"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(dest); string(got) != "previous" {
		t.Fatalf("destination changed before Commit: %q", got)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	got, err := os.ReadFile(dest)
	if err != nil || string(got) != "new content\n" {
		t.Fatalf("after commit and abort: %q, %v", got, err)
	}
	fi, err := os.Stat(dest)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("installed mode %o, want 644", mode)
	}
	noLitter(t, dir)
}

// A writer that fails part-way, as one on a full disk does, must leave
// the previous destination byte-identical and no staging file behind;
// so must an Abort before Commit. A destination in a missing directory
// fails at Stage, before any output is computed.
func TestFailedInstallKeepsDestination(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "cells.bin")
	prev := bytes.Repeat([]byte{0xab}, 4096)
	if err := os.WriteFile(dest, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(dest, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial record")); err != nil {
			return err
		}
		return syscall.ENOSPC
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("WriteFile error %v, want the writer's ENOSPC", err)
	}
	s, err := Stage(dest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("abandoned")); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if got, _ := os.ReadFile(dest); !bytes.Equal(got, prev) {
		t.Fatalf("destination changed by failed installs: %d bytes", len(got))
	}
	noLitter(t, dir)
	if _, err := Stage(filepath.Join(dir, "missing", "out.json")); err == nil {
		t.Fatal("Stage in a missing directory succeeded")
	}
}
