package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const fp = uint64(0xfeedc0dedeadbeef)

func mustCreate(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cells.bin")
	l, err := Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func TestAppendGetRoundTrip(t *testing.T) {
	l, path := mustCreate(t)
	records := map[string][]byte{
		"a|LRU|8":  {1, 2, 3},
		"b|QLRU|6": {},
		"c|SRRIP":  bytes.Repeat([]byte{0xab}, 1000),
	}
	for k, v := range records {
		if err := l.Append(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(records) || re.DroppedTail != 0 || re.DroppedDuplicates != 0 {
		t.Fatalf("reopen: len=%d droppedTail=%d droppedDup=%d", re.Len(), re.DroppedTail, re.DroppedDuplicates)
	}
	for k, v := range records {
		got, ok := re.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, ok, v)
		}
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	l, path := mustCreate(t)
	l.Close()
	if _, err := Create(path, fp); err == nil {
		t.Fatal("Create over an existing log must fail")
	}
}

func TestFingerprintMismatch(t *testing.T) {
	l, path := mustCreate(t)
	l.Close()
	_, err := Open(path, fp+1)
	var fe *ErrFingerprint
	if !errors.As(err, &fe) {
		t.Fatalf("Open with wrong fingerprint: err = %v, want ErrFingerprint", err)
	}
}

func TestAppendRejectsDuplicateKey(t *testing.T) {
	l, _ := mustCreate(t)
	defer l.Close()
	if err := l.Append("cell", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("cell", []byte{2}); err == nil {
		t.Fatal("second Append for the same key must be rejected")
	}
}

// appendN writes n distinct records and closes the log, returning the
// file size after each record so corruption tests can cut at record
// boundaries.
func appendN(t *testing.T, n int) (string, []int64) {
	t.Helper()
	l, path := mustCreate(t)
	var sizes []int64
	for i := 0; i < n; i++ {
		key := string(rune('a'+i)) + "|cell"
		if err := l.Append(key, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, st.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, sizes
}

// TestTruncatedTailDropped is corruption case 1 of the matrix: a record
// torn mid-append (file cut inside the last record) is dropped on Open,
// the file is truncated back to the verified prefix, and only the torn
// cell is lost.
func TestTruncatedTailDropped(t *testing.T) {
	path, sizes := appendN(t, 3)
	if err := os.Truncate(path, sizes[2]-5); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 || l.DroppedTail != 1 {
		t.Fatalf("after torn tail: len=%d droppedTail=%d, want 2, 1", l.Len(), l.DroppedTail)
	}
	if _, ok := l.Get("c|cell"); ok {
		t.Fatal("torn record still served")
	}
	// The repair must be physical: the file is cut back to the verified
	// prefix so the next append continues cleanly.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != sizes[1] {
		t.Fatalf("file not truncated to verified prefix: %d, want %d", st.Size(), sizes[1])
	}
	// Re-running the lost cell converges: append it again, reopen clean.
	if err := l.Append("c|cell", []byte{9}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	re, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 || re.DroppedTail != 0 {
		t.Fatalf("after repair+reappend: len=%d droppedTail=%d", re.Len(), re.DroppedTail)
	}
}

// TestFlippedChecksumByteDropsSuffix is corruption case 2: a single
// flipped byte inside a record fails its CRC; the record and everything
// after it (whose framing can no longer be trusted) are dropped and
// truncated, so the affected cells re-run rather than aggregate wrong.
func TestFlippedChecksumByteDropsSuffix(t *testing.T) {
	path, sizes := appendN(t, 4)
	// Flip one payload byte inside record 2 (offsets [sizes[1], sizes[2])).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := sizes[1] + (sizes[2]-sizes[1])/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], mid); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], mid); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 2 {
		t.Fatalf("after mid-file flip: len=%d, want the 2 records before the flip", l.Len())
	}
	if l.DroppedTail != 2 {
		t.Errorf("droppedTail = %d, want 2 (the flipped record and the one after it)", l.DroppedTail)
	}
	for _, k := range []string{"c|cell", "d|cell"} {
		if _, ok := l.Get(k); ok {
			t.Errorf("record %q after the corruption still served", k)
		}
	}
	if st, _ := os.Stat(path); st.Size() != sizes[1] {
		t.Errorf("file not truncated at the corruption: %d, want %d", st.Size(), sizes[1])
	}
}

// TestDuplicateKeyDropsBothAndCompacts is corruption case 3: two
// verified records claiming one cell are ambiguous — neither is served,
// the log is compacted so the key is physically gone, and a fresh
// append for the cell converges instead of re-duplicating.
func TestDuplicateKeyDropsBothAndCompacts(t *testing.T) {
	l, path := mustCreate(t)
	if err := l.Append("keep|cell", []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("dup|cell", []byte{1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Forge a second verified record for dup|cell by appending the raw
	// frame (Append itself refuses duplicates).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeRecord("dup|cell", []byte{2})); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if re.DroppedDuplicates != 1 || re.Len() != 1 {
		t.Fatalf("dup open: droppedDup=%d len=%d, want 1, 1", re.DroppedDuplicates, re.Len())
	}
	if _, ok := re.Get("dup|cell"); ok {
		t.Fatal("ambiguous duplicate record still served")
	}
	if _, ok := re.Get("keep|cell"); !ok {
		t.Fatal("unrelated record lost during compaction")
	}
	// Convergence: re-run the cell, reopen — no duplicates remain.
	if err := re.Append("dup|cell", []byte{3}); err != nil {
		t.Fatal(err)
	}
	re.Close()
	final, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.DroppedDuplicates != 0 || final.Len() != 2 {
		t.Fatalf("after compaction+reappend: droppedDup=%d len=%d, want 0, 2", final.DroppedDuplicates, final.Len())
	}
	if got, ok := final.Get("dup|cell"); !ok || !bytes.Equal(got, []byte{3}) {
		t.Fatalf("re-run record = %v, %v", got, ok)
	}
}

// TestGarbageHeaderRejected: a file that is not a cell log (or an
// unsupported version) is rejected outright rather than "repaired".
func TestGarbageHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junk, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk, fp); err == nil {
		t.Fatal("Open accepted a non-log file")
	}

	// Right magic, wrong version.
	vpath := filepath.Join(dir, "v.bin")
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version+1)
	binary.LittleEndian.PutUint64(hdr[8:16], fp)
	if err := os.WriteFile(vpath, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(vpath, fp); err == nil {
		t.Fatal("Open accepted an unsupported version")
	}
}

// TestShortHeaderIsTyped: any file shorter than one header is the
// typed ErrShortHeader — the recoverable "crash before the header
// sync" case — while a full-size garbage header stays an ordinary
// hard error.
func TestShortHeaderIsTyped(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 7, 15} {
		p := filepath.Join(dir, "torn.cells")
		if err := os.WriteFile(p, bytes.Repeat([]byte{0x4c}, n), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(p, fp)
		var short *ErrShortHeader
		if !errors.As(err, &short) {
			t.Fatalf("%d-byte file: err = %v, want ErrShortHeader", n, err)
		}
		if short.Size != int64(n) {
			t.Fatalf("ErrShortHeader.Size = %d, want %d", short.Size, n)
		}
	}
	p := filepath.Join(dir, "garbage.cells")
	if err := os.WriteFile(p, bytes.Repeat([]byte{0x4c}, HeaderSize), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(p, fp)
	var short *ErrShortHeader
	if err == nil || errors.As(err, &short) {
		t.Fatalf("full-size garbage header: err = %v, want a hard (non-short) error", err)
	}
}

// TestOpenOrCreate covers the recovery matrix: missing file created,
// valid log opened with its records, torn header recreated empty, and
// every hard failure (wrong fingerprint, garbage) passed through.
func TestOpenOrCreate(t *testing.T) {
	dir := t.TempDir()

	p := filepath.Join(dir, "fresh.cells")
	l, err := OpenOrCreate(p, fp)
	if err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if err := l.Append("cell", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l, err = OpenOrCreate(p, fp)
	if err != nil {
		t.Fatalf("existing log: %v", err)
	}
	if got, ok := l.Get("cell"); !ok || !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("existing log lost its record: %v %v", got, ok)
	}
	l.Close()

	torn := filepath.Join(dir, "torn.cells")
	if err := os.WriteFile(torn, []byte("LLCA\x01\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = OpenOrCreate(torn, fp)
	if err != nil {
		t.Fatalf("torn header: %v", err)
	}
	if l.Len() != 0 {
		t.Fatalf("recreated log has %d records", l.Len())
	}
	if err := l.Append("cell", []byte{3}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if re, err := Open(torn, fp); err != nil || re.Len() != 1 {
		t.Fatalf("recreated log did not survive reopen: %v", err)
	} else {
		re.Close()
	}

	if _, err := OpenOrCreate(p, fp+1); err == nil {
		t.Fatal("wrong fingerprint must stay a hard error")
	}
	garbage := filepath.Join(dir, "garbage.cells")
	if err := os.WriteFile(garbage, bytes.Repeat([]byte{9}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOrCreate(garbage, fp); err == nil {
		t.Fatal("garbage header must stay a hard error")
	}
}

// TestMergeUnit exercises Merge at the record level: ordering by
// opts.Order regardless of source order, equal-payload dedupe,
// conflicting-payload abort, foreign-key abort, Validate veto, and
// refusal to overwrite an existing destination.
func TestMergeUnit(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, cells map[string][]byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		l, err := Create(p, fp)
		if err != nil {
			t.Fatal(err)
		}
		// Map iteration scrambles append order on purpose: Merge must
		// normalise to opts.Order anyway.
		for k, v := range cells {
			if err := l.Append(k, v); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		return p
	}
	order := []string{"a", "b", "c", "d"}

	a := mk("a.cells", map[string][]byte{"c": {3}, "a": {1}})
	b := mk("b.cells", map[string][]byte{"b": {2}, "c": {3}}) // c duplicates a's byte-equal record
	dst := filepath.Join(dir, "merged.cells")
	st, err := Merge(dst, fp, MergeOptions{Order: order}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sources != 2 || st.Records != 3 || st.Deduped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	m, err := Open(dst, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Keys(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("merged key order = %v, want [a b c]", got)
	}
	m.Close()

	// An existing destination is never clobbered.
	if _, err := Merge(dst, fp, MergeOptions{Order: order}, a); err == nil {
		t.Fatal("Merge overwrote an existing destination")
	}

	conflict := mk("conflict.cells", map[string][]byte{"a": {9}})
	d2 := filepath.Join(dir, "d2.cells")
	if _, err := Merge(d2, fp, MergeOptions{Order: order}, a, conflict); err == nil {
		t.Fatal("conflicting payloads merged")
	}
	if _, serr := os.Stat(d2); serr == nil {
		t.Fatal("failed merge left a destination")
	}

	foreign := mk("foreign.cells", map[string][]byte{"zz": {1}})
	if _, err := Merge(filepath.Join(dir, "d3.cells"), fp, MergeOptions{Order: order}, foreign); err == nil {
		t.Fatal("key outside Order merged")
	}

	veto := func(key string, payload []byte) error {
		if key == "c" {
			return errors.New("vetoed")
		}
		return nil
	}
	if _, err := Merge(filepath.Join(dir, "d4.cells"), fp, MergeOptions{Order: order, Validate: veto}, a); err == nil {
		t.Fatal("Validate veto ignored")
	}

	if _, err := Merge(filepath.Join(dir, "d5.cells"), fp, MergeOptions{Order: order}); err == nil {
		t.Fatal("merge with zero sources must fail")
	}

	// Wrong-fingerprint sources are rejected by the usual Open check.
	if _, err := Merge(filepath.Join(dir, "d6.cells"), fp+1, MergeOptions{Order: order}, a); err == nil {
		t.Fatal("source with foreign fingerprint merged")
	}
}

// CheckKeys is the copy-integrity gate: the log must verify under the
// fingerprint and hold exactly the expected key set — missing keys are
// a truncated copy, extra keys another grid's cells, and a wrong
// fingerprint fails at open.
func TestCheckKeys(t *testing.T) {
	l, path := mustCreate(t)
	for _, k := range []string{"a", "b", "c"} {
		if err := l.Append(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	n, err := CheckKeys(path, fp, []string{"a", "b", "c"})
	if err != nil || n != 3 {
		t.Fatalf("CheckKeys = %d, %v; want 3, nil", n, err)
	}
	if _, err := CheckKeys(path, fp, []string{"a", "b", "c", "d"}); err == nil {
		t.Fatal("CheckKeys accepted a log missing a key")
	}
	if _, err := CheckKeys(path, fp, []string{"a", "b"}); err == nil {
		t.Fatal("CheckKeys accepted a log with an unexpected key")
	}
	if _, err := CheckKeys(path, fp+1, []string{"a", "b", "c"}); err == nil {
		t.Fatal("CheckKeys accepted a wrong fingerprint")
	}
	if _, err := CheckKeys(filepath.Join(t.TempDir(), "absent.cells"), fp, nil); err == nil {
		t.Fatal("CheckKeys accepted a missing file")
	}
}
