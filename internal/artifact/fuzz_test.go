package artifact

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzArtifactOpen opens arbitrary file bytes as a log, bound to the
// fingerprint the bytes' own header carries so the fuzzer reaches the
// record scan. Open must never panic; every key it serves must have a
// payload; the repaired file on disk must hold exactly the served
// records; and reopening it must repair nothing and serve the same
// key→payload map in the same order.
func FuzzArtifactOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var fingerprint uint64
		if len(data) >= headerSize {
			fingerprint = binary.LittleEndian.Uint64(data[8:16])
		}
		path := filepath.Join(t.TempDir(), "cells.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, fingerprint)
		if err != nil {
			return // header rejected: the file is left as it was
		}
		keys := l.Keys()
		if len(keys) != l.Len() {
			t.Fatalf("Keys() lists %d keys, Len() = %d", len(keys), l.Len())
		}
		want := data[:headerSize:headerSize] // capped: appends copy
		for _, k := range keys {
			p, ok := l.Get(k)
			if !ok {
				t.Fatalf("key %q listed without a payload", k)
			}
			want = append(want, encodeRecord(k, p)...)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("repaired file (%d bytes) is not the header plus the %d served records (%d bytes)", len(got), len(keys), len(want))
		}
		re, err := Open(path, fingerprint)
		if err != nil {
			t.Fatalf("reopening the repaired file: %v", err)
		}
		defer re.Close()
		if re.DroppedTail != 0 || re.DroppedDuplicates != 0 {
			t.Fatalf("reopen repaired again: dropped tail %d, duplicates %d", re.DroppedTail, re.DroppedDuplicates)
		}
		if !slices.Equal(re.Keys(), keys) {
			t.Fatalf("reopen keys %q, want %q", re.Keys(), keys)
		}
		for _, k := range keys {
			p, _ := l.Get(k)
			if q, ok := re.Get(k); !ok || !bytes.Equal(p, q) {
				t.Fatalf("reopen payload for %q = %x (%v), want %x", k, q, ok, p)
			}
		}
	})
}
