package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
		if len(data) >= HeaderSize {
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
		want := data[:HeaderSize:HeaderSize] // capped: appends copy
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

// FuzzMerge merges three source logs built from arbitrary records —
// cross-source duplicates (equal or conflicting), same-source
// duplicates, keys outside the order, a torn tail on the first source
// — under an arbitrary order that may repeat, omit or add keys. Merge
// must never panic. It must succeed exactly when no two sources
// disagree about a key, every source key is in the order, no merged
// payload is vetoed and no merged key repeats in the order; a failure
// leaves no destination. A success writes the header plus each merged
// record in order, which reopens with nothing to repair, and a
// repeated merge writes the same bytes.
func FuzzMerge(f *testing.F) {
	// recs is a stream of (source, key, payload length, payload...)
	// groups; each order byte names one key.
	f.Add([]byte("\x00\x00\x01A\x01\x01\x01B\x02\x02\x00"), []byte("\x00\x01\x02"), []byte(nil))     // disjoint sources
	f.Add([]byte("\x00\x00\x01A\x01\x00\x01A"), []byte("\x00\x01"), []byte(nil))                     // byte-equal duplicate
	f.Add([]byte("\x00\x00\x01A\x01\x00\x01B"), []byte("\x00"), []byte(nil))                         // conflicting payloads
	f.Add([]byte("\x00\x00\x01A\x00\x00\x01A\x01\x01\x00"), []byte("\x00\x01"), []byte(nil))         // same-source duplicate
	f.Add([]byte("\x00\x05\x01A"), []byte("\x00\x01"), []byte(nil))                                  // key outside the order
	f.Add([]byte("\x00\x00\x01A"), []byte("\x00\x00"), []byte(nil))                                  // order repeats a key
	f.Add([]byte("\x00\x00\x01\xee"), []byte("\x00"), []byte(nil))                                   // vetoed payload
	f.Add([]byte("\x00\x00\x01A\x02\x01\x02BC"), []byte("\x01\x00"), []byte("\x09\x00\x00\x00\x01")) // torn tail
	f.Fuzz(func(t *testing.T, recs, orderSel, tail []byte) {
		const sources = 3
		keyOf := func(b byte) string { return string(rune('a' + b%8)) }
		var raw [sources][]byte
		for i := 0; i+3 <= len(recs); {
			src, key, n := int(recs[i]%sources), keyOf(recs[i+1]), int(recs[i+2]%4)
			i += 3
			payload := recs[i:min(i+n, len(recs))]
			i += len(payload)
			raw[src] = append(raw[src], encodeRecord(key, payload)...)
		}
		raw[0] = append(raw[0], tail...)
		order := make([]string, len(orderSel))
		for i, b := range orderSel {
			order[i] = keyOf(b % 6) // keys "g" and "h" never join the order
		}

		dir := t.TempDir()
		srcs := make([]string, sources)
		for i := range srcs {
			srcs[i] = filepath.Join(dir, fmt.Sprintf("src%d.cells", i))
			l, err := Create(srcs[i], fp)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			fh, err := os.OpenFile(srcs[i], os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			fh.Write(raw[i])
			fh.Close()
		}
		opts := MergeOptions{
			Order: order,
			Validate: func(key string, payload []byte) error {
				if len(payload) > 0 && payload[0] == 0xee {
					return errors.New("vetoed")
				}
				return nil
			},
		}
		dst := filepath.Join(dir, "merged.cells")
		st, err := Merge(dst, fp, opts, srcs...)

		// The oracle reads each source as Open repairs it.
		union := make(map[string][]byte)
		records, ok := 0, true
		for _, sp := range srcs {
			l, oerr := Open(sp, fp)
			if oerr != nil {
				t.Fatalf("reopening source %s: %v", sp, oerr)
			}
			for _, k := range l.Keys() {
				p, _ := l.Get(k)
				records++
				if prev, seen := union[k]; seen && !bytes.Equal(prev, p) {
					ok = false // conflict
				}
				union[k] = p
				if !slices.Contains(order, k) || (len(p) > 0 && p[0] == 0xee) {
					ok = false // outside the order, or vetoed
				}
			}
			l.Close()
		}
		want, _ := os.ReadFile(srcs[0])
		want = want[:HeaderSize:HeaderSize]
		written := make(map[string]bool)
		for _, k := range order {
			p, in := union[k]
			if !in {
				continue
			}
			if written[k] {
				ok = false // the order repeats a merged key
			}
			written[k] = true
			want = append(want, encodeRecord(k, p)...)
		}

		if err != nil {
			if ok {
				t.Fatalf("merge of compatible sources failed: %v", err)
			}
			if _, serr := os.Stat(dst); serr == nil {
				t.Fatalf("failed merge (%v) left a destination", err)
			}
			return
		}
		if !ok {
			t.Fatalf("merge succeeded (%+v) on sources it must refuse", st)
		}
		if st.Records != len(union) || st.Deduped != records-len(union) {
			t.Fatalf("stats %+v, want %d records, %d deduped", st, len(union), records-len(union))
		}
		got, rerr := os.ReadFile(dst)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("merged log (%d bytes) is not the header plus the merged records in order (%d bytes)", len(got), len(want))
		}
		re, err := Open(dst, fp)
		if err != nil {
			t.Fatalf("reopening the merged log: %v", err)
		}
		defer re.Close()
		if re.DroppedTail != 0 || re.DroppedDuplicates != 0 || re.Len() != len(union) {
			t.Fatalf("reopened merge: %d records, dropped tail %d, duplicates %d; want %d records, no repair",
				re.Len(), re.DroppedTail, re.DroppedDuplicates, len(union))
		}
		again := filepath.Join(dir, "again.cells")
		if _, err := Merge(again, fp, opts, srcs...); err != nil {
			t.Fatalf("repeated merge: %v", err)
		}
		if got2, _ := os.ReadFile(again); !bytes.Equal(got2, got) {
			t.Fatal("repeated merge wrote different bytes")
		}
	})
}
