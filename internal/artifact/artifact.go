// Package artifact implements the append-only binary cell-result log
// that makes long campaigns survivable: every completed grid cell is
// appended as one checksummed record, so a run killed at any instant
// loses at most the cell it was computing. The format follows the WAL
// discipline (append, fsync, never rewrite in place): a fixed-size
// header binds the log to one sweep spec via a fingerprint, each record
// carries a CRC-32C over its length fields, key and payload, and Open
// rebuilds the in-memory index by scanning — a torn or corrupt tail is
// detected by checksum, dropped, and physically truncated away, so the
// next append continues from the last verified record.
//
// Two failure shapes get distinct treatment on Open:
//
//   - A record that fails its checksum (torn write, bit rot) ends the
//     trusted prefix: it and everything after it are dropped and
//     truncated. Lengths inside a corrupt record cannot be trusted, so
//     resynchronising past it would risk parsing garbage as valid
//     records; re-running the lost cells is always safe, reading a
//     half-written one never is.
//   - Two VERIFIED records with the same cell key are ambiguous (they
//     may disagree), so neither is used: the key is dropped from the
//     index and the log is compacted in place (rewritten without the
//     duplicated key, via temp file + rename), which both forces the
//     cell to re-run and makes the dedup converge instead of
//     accumulating copies.
//
// JSON/CSV artifacts are export views rendered from the log's records;
// the log itself is the durable form.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Magic identifies a cell-result log file ("LLCA" little-endian).
const Magic = 0x4143_4c4c

// Version is the current format version; Open rejects others.
const Version = 1

// HeaderSize is the fixed on-disk header: magic u32, version u32,
// spec fingerprint u64, all little-endian. A shorter file is a torn
// header (ErrShortHeader).
const HeaderSize = 16

// recordOverhead is the fixed per-record framing: key length u32,
// payload length u32, trailing CRC-32C u32.
const recordOverhead = 12

// maxKeyLen and maxPayloadLen bound record framing so a corrupt length
// field cannot drive a multi-gigabyte allocation while scanning.
const (
	maxKeyLen     = 1 << 16
	maxPayloadLen = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an open cell-result log. Get serves reads from the in-memory
// index built at Open (records are small aggregates, not raw traces,
// so the whole index fits trivially); Append writes through to disk
// with an fsync before the record is considered durable. A Log is not
// safe for concurrent use; the campaign runner serialises appends.
type Log struct {
	f    *os.File
	path string
	// index maps cell key -> verified payload. Only keys whose record
	// verified exactly once are present.
	index map[string][]byte
	// order keeps insertion order of index keys, so compaction and
	// Keys() are deterministic.
	order []string

	// DroppedTail counts records lost to the truncated/corrupt tail at
	// Open (0 on a cleanly closed log).
	DroppedTail int
	// DroppedDuplicates counts cell keys discarded at Open because two
	// verified records claimed them.
	DroppedDuplicates int

	// appended accumulates the encoded bytes this handle has written via
	// Append (header + key + payload + checksum), for telemetry.
	appended int64
}

// AppendedBytes reports the total encoded bytes this handle has written
// via Append — on-disk record size, not just payload. Campaign metrics
// surface it as the artifact-append byte counter.
func (l *Log) AppendedBytes() int64 { return l.appended }

// Create creates a new log at path (failing if one already exists —
// resuming an existing log is Open's job) bound to the given spec
// fingerprint.
func Create(path string, fingerprint uint64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if _, err := f.Write(encodeHeader(fingerprint)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("artifact: %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("artifact: %s: %w", path, err)
	}
	return &Log{f: f, path: path, index: map[string][]byte{}}, nil
}

// Open opens an existing log, verifies its header against the expected
// spec fingerprint, and scans every record: the verified unique prefix
// becomes the index, a corrupt or torn tail is truncated away, and
// duplicated keys are dropped and compacted out (see the package
// comment for why each is handled that way). After Open returns, the
// file on disk contains exactly the records the index serves.
func Open(path string, fingerprint uint64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	l := &Log{f: f, path: path, index: map[string][]byte{}}
	if err := l.load(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// ErrFingerprint reports a checkpoint that belongs to a different spec.
type ErrFingerprint struct {
	Path      string
	Got, Want uint64
}

// Error implements the error interface.
func (e *ErrFingerprint) Error() string {
	return fmt.Sprintf("artifact: %s was checkpointed by a different spec (fingerprint %016x, want %016x)", e.Path, e.Got, e.Want)
}

// ErrShortHeader reports a file too short to hold even the log header:
// a crash between Create and the header write/sync leaves exactly this
// shape behind. Such a file cannot contain a verified record, so unlike
// every other open failure it is safe to recreate — OpenOrCreate does,
// and CLIs surface the recovery instead of wedging on every retry.
type ErrShortHeader struct {
	Path string
	Size int64
}

// Error implements the error interface.
func (e *ErrShortHeader) Error() string {
	return fmt.Sprintf("artifact: %s: truncated header (%d bytes, no verified records)", e.Path, e.Size)
}

// OpenOrCreate is the resumable open every retry loop wants: a missing
// file is created, an existing log is opened (with the usual fingerprint
// check and tail/duplicate repairs), and a torn header — the residue of
// a crash between Create and its header sync, which can never hold a
// verified record — is recreated in place rather than returned as a
// permanent error. Every other failure (foreign file, version or
// fingerprint mismatch, I/O error) stays hard: those logs may hold real
// records and must never be silently destroyed.
func OpenOrCreate(path string, fingerprint uint64) (*Log, error) {
	if _, err := os.Stat(path); err != nil {
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("artifact: %w", err)
		}
		return Create(path, fingerprint)
	}
	l, err := Open(path, fingerprint)
	var short *ErrShortHeader
	if errors.As(err, &short) {
		if rerr := os.Remove(path); rerr != nil {
			return nil, fmt.Errorf("artifact: recreating %s: %w", path, rerr)
		}
		return Create(path, fingerprint)
	}
	return l, err
}

// load scans the log, building the index and repairing the file (tail
// truncation, duplicate compaction) as described in the package
// comment.
func (l *Log) load(fingerprint uint64) error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("artifact: %s: %w", l.path, err)
	}
	if len(data) < HeaderSize {
		return &ErrShortHeader{Path: l.path, Size: int64(len(data))}
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != Magic {
		return fmt.Errorf("artifact: %s: bad magic %#x", l.path, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return fmt.Errorf("artifact: %s: unsupported version %d (have %d)", l.path, v, Version)
	}
	if fp := binary.LittleEndian.Uint64(data[8:16]); fp != fingerprint {
		return &ErrFingerprint{Path: l.path, Got: fp, Want: fingerprint}
	}

	// Scan records until the data runs out or a record fails to verify.
	// goodEnd tracks the byte offset of the verified prefix.
	dupped := map[string]bool{}
	goodEnd := HeaderSize
	off := HeaderSize
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			break // torn framing
		}
		keyLen := binary.LittleEndian.Uint32(rest[0:4])
		payloadLen := binary.LittleEndian.Uint32(rest[4:8])
		if keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
			break // implausible lengths: corrupt framing
		}
		total := 8 + int(keyLen) + int(payloadLen) + 4
		if len(rest) < total {
			break // record extends past EOF: torn append
		}
		sum := binary.LittleEndian.Uint32(rest[total-4 : total])
		if crc32.Checksum(rest[:total-4], castagnoli) != sum {
			// Checksum failure mid-file: lengths inside the record are no
			// more trustworthy than its payload, so everything from here on
			// is an untrusted tail.
			break
		}
		key := string(rest[8 : 8+int(keyLen)])
		payload := append([]byte(nil), rest[8+int(keyLen):total-4]...)
		if _, seen := l.index[key]; seen || dupped[key] {
			// Second verified record for the key: ambiguous, drop both.
			if !dupped[key] {
				dupped[key] = true
				delete(l.index, key)
				l.DroppedDuplicates++
			}
		} else {
			l.index[key] = payload
			l.order = append(l.order, key)
		}
		off += total
		goodEnd = off
	}
	if goodEnd < len(data) {
		// Count the framing-plausible records inside the dropped tail so
		// the resume report reflects how much work was lost, then cut the
		// file back to the verified prefix.
		l.DroppedTail = countPlausible(data[goodEnd:])
		if err := l.f.Truncate(int64(goodEnd)); err != nil {
			return fmt.Errorf("artifact: %s: truncating corrupt tail: %w", l.path, err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("artifact: %s: %w", l.path, err)
		}
	}
	l.order = filterOrder(l.order, l.index)
	if len(dupped) > 0 {
		// Keep only uniquely-keyed records: rewrite and swap. Without the
		// compaction, the re-run cell's fresh append would itself be a
		// duplicate on the next open and the cell would never converge.
		if err := l.compact(fingerprint); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("artifact: %s: %w", l.path, err)
	}
	return nil
}

// countPlausible counts how many records could be framed out of a
// dropped tail (used only to report how much work was lost).
func countPlausible(rest []byte) int {
	n := 0
	for len(rest) >= 8 {
		keyLen := binary.LittleEndian.Uint32(rest[0:4])
		payloadLen := binary.LittleEndian.Uint32(rest[4:8])
		if keyLen == 0 || keyLen > maxKeyLen || payloadLen > maxPayloadLen {
			break
		}
		total := 8 + int(keyLen) + int(payloadLen) + 4
		if len(rest) < total {
			break
		}
		n++
		rest = rest[total:]
	}
	if n == 0 {
		return 1
	}
	return n
}

// filterOrder drops order entries whose key is no longer indexed.
func filterOrder(order []string, index map[string][]byte) []string {
	out := order[:0]
	for _, k := range order {
		if _, ok := index[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

// compact rewrites the log with exactly the indexed records through
// the file installer (never a partial file in place) and swaps the open
// handle to it.
func (l *Log) compact(fingerprint uint64) error {
	err := WriteFile(l.path, func(w io.Writer) error {
		if _, err := w.Write(encodeHeader(fingerprint)); err != nil {
			return err
		}
		for _, key := range l.order {
			if _, err := w.Write(encodeRecord(key, l.index[key])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("artifact: compacting %s: %w", l.path, err)
	}
	old := l.f
	f, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("artifact: reopening %s after compaction: %w", l.path, err)
	}
	old.Close()
	l.f = f
	return nil
}

// encodeHeader builds the log header: magic u32 | version u32 |
// fingerprint u64.
func encodeHeader(fingerprint uint64) []byte {
	hdr := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], fingerprint)
	return hdr
}

// encodeRecord frames one record: keyLen u32 | payloadLen u32 | key |
// payload | crc32c(all previous bytes).
func encodeRecord(key string, payload []byte) []byte {
	buf := make([]byte, 8+len(key)+len(payload)+4)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	copy(buf[8:], key)
	copy(buf[8+len(key):], payload)
	sum := crc32.Checksum(buf[:len(buf)-4], castagnoli)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], sum)
	return buf
}

// Get returns the verified payload recorded for key, if any. The
// returned slice is the index's copy; callers must not mutate it.
func (l *Log) Get(key string) ([]byte, bool) {
	p, ok := l.index[key]
	return p, ok
}

// Len returns the number of verified, uniquely-keyed records.
func (l *Log) Len() int { return len(l.index) }

// Keys returns the indexed cell keys in record order.
func (l *Log) Keys() []string {
	return append([]string(nil), l.order...)
}

// Append durably records key's payload: the record is written and
// fsynced before Append returns, so a SIGKILL after Append cannot lose
// the cell. Appending a key that is already indexed is a programming
// error (the campaign layer never re-runs a verified cell) and is
// rejected rather than written, because a second verified record would
// poison the key as a duplicate on the next Open.
func (l *Log) Append(key string, payload []byte) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("artifact: invalid key length %d", len(key))
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("artifact: payload too large (%d bytes)", len(payload))
	}
	if _, dup := l.index[key]; dup {
		return fmt.Errorf("artifact: duplicate append for cell %q", key)
	}
	rec := encodeRecord(key, payload)
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("artifact: %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("artifact: %s: %w", l.path, err)
	}
	l.appended += int64(len(rec))
	cp := append([]byte(nil), payload...)
	l.index[key] = cp
	l.order = append(l.order, key)
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error {
	return l.f.Close()
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// MergeOptions configures Merge.
type MergeOptions struct {
	// Order is the canonical key sequence of the merged log: records are
	// written in this order regardless of which source held them or in
	// what order, which is what makes the merged file deterministic (and
	// byte-identical to a sequential single-process run, whose appends
	// follow the same order). A key present in a source but absent from
	// Order is an error — it cannot belong to the grid the fingerprint
	// names.
	Order []string
	// Validate, when non-nil, checks each surviving record before
	// anything is written; the first error aborts the merge with no
	// destination file created. The campaign layer uses it to require
	// payloads that decode to the spec's exact trial count.
	Validate func(key string, payload []byte) error
}

// MergeStats summarises a completed Merge.
type MergeStats struct {
	// Sources is the number of source logs read.
	Sources int
	// Records is the number of records written to the destination.
	Records int
	// Deduped counts key collisions between sources whose payloads were
	// byte-equal and therefore collapsed to one record.
	Deduped int
}

// Merge combines verified per-shard logs into one log at dstPath, which
// must not already exist. Every source must carry the same fingerprint
// (each shard of one campaign does); each source is opened with the
// usual repairs, so torn tails and intra-source duplicates are dropped
// before merging. Across sources, two records claiming one key are
// deduplicated when their payloads are byte-equal and are an error when
// they differ — differing payloads mean the sources disagree about a
// cell's samples, and guessing would silently corrupt the artifact.
// Records land in opts.Order; a failed merge never leaves a partial
// destination behind.
func Merge(dstPath string, fingerprint uint64, opts MergeOptions, srcPaths ...string) (*MergeStats, error) {
	if len(srcPaths) == 0 {
		return nil, fmt.Errorf("artifact: merge: no source logs")
	}
	inOrder := make(map[string]bool, len(opts.Order))
	for _, k := range opts.Order {
		inOrder[k] = true
	}
	st := &MergeStats{Sources: len(srcPaths)}
	merged := make(map[string][]byte)
	from := make(map[string]string) // key -> source path, for conflict errors
	for _, sp := range srcPaths {
		src, err := Open(sp, fingerprint)
		if err != nil {
			return nil, err
		}
		for _, key := range src.Keys() {
			payload, _ := src.Get(key)
			if !inOrder[key] {
				src.Close()
				return nil, fmt.Errorf("artifact: merge: %s holds key %q which is not a cell of this grid", sp, key)
			}
			if prev, seen := merged[key]; seen {
				if !bytes.Equal(prev, payload) {
					src.Close()
					return nil, fmt.Errorf("artifact: merge: %s and %s disagree about cell %q", from[key], sp, key)
				}
				st.Deduped++
				continue
			}
			merged[key] = append([]byte(nil), payload...)
			from[key] = sp
		}
		src.Close()
	}
	if opts.Validate != nil {
		for _, key := range opts.Order {
			if payload, ok := merged[key]; ok {
				if err := opts.Validate(key, payload); err != nil {
					return nil, fmt.Errorf("artifact: merge: cell %q from %s: %w", key, from[key], err)
				}
			}
		}
	}
	dst, err := Create(dstPath, fingerprint)
	if err != nil {
		return nil, err
	}
	for _, key := range opts.Order {
		payload, ok := merged[key]
		if !ok {
			continue // shard not run (or cell lost); resume computes it
		}
		if err := dst.Append(key, payload); err != nil {
			dst.Close()
			os.Remove(dstPath)
			return nil, err
		}
		st.Records++
	}
	if err := dst.Close(); err != nil {
		os.Remove(dstPath)
		return nil, fmt.Errorf("artifact: %s: %w", dstPath, err)
	}
	return st, nil
}

// CheckKeys opens the log at path (running the usual header, checksum
// and duplicate repairs) and verifies it holds EXACTLY the given keys:
// every wanted key present with a verified record, no key beyond them.
// It is the integrity gate for a log copied from elsewhere (a merged
// shard log, a download from a daemon's artifact endpoint): a
// truncated copy loses tail records (missing keys), a wrong-fingerprint
// file fails at open, and a log with extra keys belongs to another
// grid. The verified key count is returned so callers can report what
// a failed copy was missing.
func CheckKeys(path string, fingerprint uint64, keys []string) (int, error) {
	l, err := Open(path, fingerprint)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	for _, k := range l.Keys() {
		if !want[k] {
			return l.Len(), fmt.Errorf("artifact: %s holds unexpected key %q", path, k)
		}
	}
	for _, k := range keys {
		if _, ok := l.Get(k); !ok {
			return l.Len(), fmt.Errorf("artifact: %s is missing key %q (%d of %d verified)", path, k, l.Len(), len(keys))
		}
	}
	return l.Len(), nil
}
