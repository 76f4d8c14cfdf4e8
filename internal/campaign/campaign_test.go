package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// tinySpec mirrors the sweep package's test grid: 2 experiments x 2
// policies = 4+ cells of cheap construction trials.
func tinySpec() sweep.Spec {
	return sweep.Spec{
		Experiments: []string{"evset/bins", "probe/parallel"},
		Policies:    []string{"LRU", "QLRU"},
		SFAssocs:    []int{8},
		Slices:      []int{2},
		NoiseRates:  []float64{0.29},
		Trials:      3,
		Seed:        7,
	}
}

func encodeResult(t *testing.T, r *sweep.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignMatchesSweep pins the equivalence the whole layer rests
// on: a campaign (any worker count, checkpointed or not) must produce the byte-identical artifact to the flattened
// single-call sweep.
func TestCampaignMatchesSweep(t *testing.T) {
	spec := tinySpec()
	want, err := sweep.Run(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := encodeResult(t, want)
	for _, workers := range []int{1, 4} {
		got, st, err := Run(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeResult(t, got), wantJSON) {
			t.Fatalf("workers=%d: campaign artifact differs from sweep.Run", workers)
		}
		if st.Skipped != 0 || st.Ran != st.Cells {
			t.Fatalf("workers=%d: stats = %+v", workers, st)
		}
	}

	// Checkpointed from scratch: same artifact, and the log afterwards
	// holds every cell.
	dir := t.TempDir()
	log, err := artifact.Create(filepath.Join(dir, "cells.bin"), Fingerprint(spec))
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Run(context.Background(), spec, Options{Workers: 2, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResult(t, got), wantJSON) {
		t.Fatal("checkpointed campaign artifact differs from sweep.Run")
	}
	if log.Len() != st.Cells {
		t.Fatalf("log holds %d records, want %d", log.Len(), st.Cells)
	}
	log.Close()
}

// TestResumeSkipsVerifiedCells interrupts a campaign mid-grid via
// context cancellation, then resumes from the checkpoint: the resumed
// run must skip every checkpointed cell (never repeating completed
// work) and its final artifact must be byte-identical to an
// uninterrupted run's.
func TestResumeSkipsVerifiedCells(t *testing.T) {
	spec := tinySpec()
	fp := Fingerprint(spec)
	want, err := sweep.Run(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := encodeResult(t, want)

	path := filepath.Join(t.TempDir(), "cells.bin")
	log, err := artifact.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after the second completed cell: the in-flight cell dies
	// uncheckpointed, exactly like a SIGINT mid-grid.
	ctx, cancel := context.WithCancel(context.Background())
	_, st, err := Run(ctx, spec, Options{
		Workers: 1,
		Log:     log,
		OnCell: func(ev Event) {
			if ev.Done == 2 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if st.Ran < 2 {
		t.Fatalf("interrupted run completed %d cells, want >= 2", st.Ran)
	}
	log.Close()

	re, err := artifact.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var skippedEvents int
	got, st2, err := Run(context.Background(), spec, Options{
		Workers: 4,
		Log:     re,
		OnCell: func(ev Event) {
			if ev.Skipped {
				skippedEvents++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Skipped == 0 || st2.Skipped != st.Ran || skippedEvents != st2.Skipped {
		t.Fatalf("resume skipped %d cells (events %d), interrupted run checkpointed %d", st2.Skipped, skippedEvents, st.Ran)
	}
	if st2.Ran != st2.Cells-st2.Skipped {
		t.Fatalf("resume stats inconsistent: %+v", st2)
	}
	if !bytes.Equal(encodeResult(t, got), wantJSON) {
		t.Fatal("resumed artifact is not byte-identical to the uninterrupted run")
	}
}

// TestResumeRerunsCorruptedCells is the corruption matrix at campaign
// level: truncate the checkpoint's tail record, then resume — the
// dropped cell must re-run (stats say so) and the final artifact must
// still be byte-identical to an uninterrupted run.
func TestResumeRerunsCorruptedCells(t *testing.T) {
	spec := tinySpec()
	fp := Fingerprint(spec)
	want, err := sweep.Run(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cells.bin")
	log, err := artifact.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), spec, Options{Workers: 2, Log: log}); err != nil {
		t.Fatal(err)
	}
	log.Close()

	// Tear the last record.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	re, err := artifact.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, stats, err := Run(context.Background(), spec, Options{Workers: 2, Log: re})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran != 1 || stats.Skipped != stats.Cells-1 || stats.DroppedTail != 1 {
		t.Fatalf("post-corruption stats = %+v, want 1 re-run", stats)
	}
	if !bytes.Equal(encodeResult(t, got), encodeResult(t, want)) {
		t.Fatal("artifact after corruption repair differs from uninterrupted run")
	}
}

// TestFingerprintBindsSpec: any spec change that could change a cell's
// samples must change the fingerprint, and an artifact log opened with
// the wrong fingerprint must be rejected.
func TestFingerprintBindsSpec(t *testing.T) {
	base := tinySpec()
	mut := []func(*sweep.Spec){
		func(s *sweep.Spec) { s.Trials = 4 },
		func(s *sweep.Spec) { s.Seed = 8 },
		func(s *sweep.Spec) { s.Policies = []string{"LRU"} },
		func(s *sweep.Spec) { s.NoiseRates = []float64{11.5} },
	}
	fp := Fingerprint(base)
	for i, m := range mut {
		s := tinySpec()
		m(&s)
		if Fingerprint(s) == fp {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
	// Normalization canonicalises: an explicit spelling of the defaults
	// fingerprints identically to the defaulted spec.
	s := tinySpec()
	s.TenantModels = []string{"poisson"}
	s.Defenses = []string{"none"}
	if Fingerprint(s) != fp {
		t.Error("explicitly-defaulted spec fingerprints differently")
	}

	path := filepath.Join(t.TempDir(), "cells.bin")
	log, err := artifact.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, err := artifact.Open(path, Fingerprint(sweep.Spec{Trials: 9, Seed: 3})); err == nil {
		t.Fatal("checkpoint from a different spec was accepted")
	}
}

func TestSampleCodecRoundTrip(t *testing.T) {
	in := []experiments.Sample{
		{OK: true, Value: 1234.5},
		{OK: false, Value: 0},
		{OK: true, Value: math.Inf(1)},
		{OK: true, Value: -0.0},
	}
	out, err := DecodeSamples(EncodeSamples(in), len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i].OK != in[i].OK || math.Float64bits(out[i].Value) != math.Float64bits(in[i].Value) {
			t.Fatalf("sample %d: %+v != %+v", i, out[i], in[i])
		}
	}
	if _, err := DecodeSamples([]byte{1, 2, 3}, len(in)); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := EncodeSamples(in)
	bad[0] = 7
	if _, err := DecodeSamples(bad, len(in)); err == nil {
		t.Fatal("invalid OK byte accepted")
	}
}

// TestCampaignCellFailure: a verified checkpoint record whose payload
// does not decode to the spec's trial count (impossible under the
// fingerprint unless a foreign writer touched the log) fails the
// campaign loudly instead of silently re-running or mis-aggregating.
func TestCampaignCellFailure(t *testing.T) {
	spec := tinySpec()
	fp := Fingerprint(spec)
	path := filepath.Join(t.TempDir(), "cells.bin")
	log, err := artifact.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cls := func() []sweep.Cell {
		s := spec
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return sweep.Expand(s)
	}()
	// A verified record with the wrong trial count (2 instead of 3).
	if err := log.Append(cls[0].Key, EncodeSamples(make([]experiments.Sample, 2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), spec, Options{Log: log}); err == nil {
		t.Fatal("undecodable checkpoint record must fail the campaign, not silently re-run")
	}
}

// TestEventOrdering: Done counts are strictly increasing 1..Cells and
// each cell appears exactly once.
func TestEventOrdering(t *testing.T) {
	spec := tinySpec()
	var events []Event
	_, _, err := Run(context.Background(), spec, Options{
		Workers: 4,
		OnCell:  func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Fatalf("event %d has Done=%d", i, ev.Done)
		}
		if seen[ev.Cell] {
			t.Fatalf("cell %d completed twice", ev.Cell)
		}
		seen[ev.Cell] = true
		if ev.Key == "" || ev.Coords == "" {
			t.Fatalf("event %d missing key/coords: %+v", i, ev)
		}
	}
	if len(events) == 0 || len(seen) != events[0].Total {
		t.Fatalf("saw %d events over %d cells", len(events), len(seen))
	}
}

func TestExpandKeysUniqueAndReflectSeeds(t *testing.T) {
	s := tinySpec()
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cls := sweep.Expand(s)
	keys := map[string]bool{}
	for _, c := range cls {
		if keys[c.Key] {
			t.Fatalf("duplicate cell key %q", c.Key)
		}
		keys[c.Key] = true
	}
	// Same coordinates, different grid shape: surviving cells keep both
	// key and seed (the reshape-stability contract checkpoints rely on).
	small := tinySpec()
	small.Policies = []string{"QLRU"}
	small.Normalize()
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range sweep.Expand(small) {
		found := false
		for _, c := range cls {
			if c.Key == sc.Key {
				found = true
				if c.Seed != sc.Seed {
					t.Fatalf("cell %q changed seed across grid reshape", sc.Key)
				}
			}
		}
		if !found {
			t.Fatalf("cell %q missing from the larger grid", sc.Key)
		}
	}
}

// TestReflectEqualResults double-checks Aggregate purity through the
// campaign path at the struct level (bytes.Equal above already covers
// the encoded form).
func TestReflectEqualResults(t *testing.T) {
	spec := tinySpec()
	a, err := sweep.Run(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(context.Background(), spec, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("campaign Result differs structurally from sweep.Run")
	}
}

// roundRobin owns shard i of n, as llcsweep -shard i/n does.
func roundRobin(i, n int) func(int) bool {
	return func(ci int) bool { return ci%n == i }
}

// cellRange owns the half-open range [start, end), as an llcserve range
// job does.
func cellRange(start, end int) func(int) bool {
	return func(ci int) bool { return start <= ci && ci < end }
}

// checkPartitionMerge pins determinism clause 8 for one way the grid is
// cut: the parts are a disjoint cover of the grid, a part returns no
// Result (its cells alone cannot aggregate), the parts' stats sum to
// the grid, the part logs merge byte-identical to the log a sequential
// uninterrupted single-process run writes, and resuming from the merged
// log re-runs nothing and yields the single-process artifact. Each part
// runs two workers, so its append order is nondeterministic and the
// merge must normalise it.
func checkPartitionMerge(t *testing.T, parts []func(int) bool) {
	t.Helper()
	spec := tinySpec() // 4 cells
	fp := Fingerprint(spec)
	dir := t.TempDir()
	cls := func() []sweep.Cell {
		s := spec
		s.Normalize()
		return sweep.Expand(s)
	}()

	refPath := filepath.Join(dir, "ref.cells")
	ref, err := artifact.Create(refPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Run(context.Background(), spec, Options{Workers: 1, Log: ref})
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	cells := 0
	var srcs []string
	for i, owns := range parts {
		path := filepath.Join(dir, fmt.Sprintf("part%d.cells", i))
		log, err := artifact.Create(path, fp)
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := Run(context.Background(), spec, Options{Workers: 2, Log: log, Owns: owns})
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			t.Fatalf("part %d returned a Result; a part must not aggregate", i)
		}
		if st.Ran != st.Cells || st.Skipped != 0 {
			t.Fatalf("part %d stats = %+v", i, st)
		}
		cells += st.Cells
		for _, k := range log.Keys() {
			seen[k]++
		}
		log.Close()
		srcs = append(srcs, path)
	}
	if cells != len(cls) {
		t.Fatalf("parts cover %d cells, grid has %d", cells, len(cls))
	}
	for _, c := range cls {
		if seen[c.Key] != 1 {
			t.Fatalf("cell %q owned by %d parts, want exactly 1", c.Key, seen[c.Key])
		}
	}

	mergedPath := filepath.Join(dir, "merged.cells")
	mst, err := Merge(spec, mergedPath, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Deduped != 0 {
		t.Fatalf("disjoint parts deduped %d records", mst.Deduped)
	}
	gotBytes, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatalf("merged log differs from the sequential single-process log (%d vs %d bytes)", len(gotBytes), len(refBytes))
	}

	merged, err := artifact.Open(mergedPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	got, stats, err := Run(context.Background(), spec, Options{Workers: 4, Log: merged})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran != 0 || stats.Skipped != stats.Cells {
		t.Fatalf("resume from merged log re-ran cells: %+v", stats)
	}
	if !bytes.Equal(encodeResult(t, got), encodeResult(t, want)) {
		t.Fatal("artifact from merged log differs from the single-process artifact")
	}
}

// TestShardPartitionsCells: round-robin shards stay a disjoint cover
// that merges byte-identical when there are more shards than cells —
// shard 4 of 5 owns nothing on the 4-cell grid.
func TestShardPartitionsCells(t *testing.T) {
	checkPartitionMerge(t, []func(int) bool{roundRobin(0, 5), roundRobin(1, 5), roundRobin(2, 5), roundRobin(3, 5), roundRobin(4, 5)})
}

// TestShardedMergeByteIdentical: three round-robin shards, as
// llcsweep -shard i/3 runs them, merge byte-identical to a sequential
// single-process run.
func TestShardedMergeByteIdentical(t *testing.T) {
	checkPartitionMerge(t, []func(int) bool{roundRobin(0, 3), roundRobin(1, 3), roundRobin(2, 3)})
}

// TestRangeClaimPartitionsCells: Owns need not be round-robin. Uneven
// contiguous cell ranges [0,1) [1,3) [3,4) cover the grid once and
// merge byte-identical, so Merge relies on nothing but the partition
// being a disjoint cover (determinism clause 8).
func TestRangeClaimPartitionsCells(t *testing.T) {
	checkPartitionMerge(t, []func(int) bool{cellRange(0, 1), cellRange(1, 3), cellRange(3, 4)})
}

// TestMergeDetectsConflictsAndDedupes: byte-equal duplicate records
// across sources dedupe; differing payloads for one key abort the
// merge with no destination file.
func TestMergeDetectsConflictsAndDedupes(t *testing.T) {
	spec := tinySpec()
	fp := Fingerprint(spec)
	dir := t.TempDir()
	s := spec
	s.Normalize()
	cls := sweep.Expand(s)

	mkLog := func(name string, fill func(*artifact.Log)) string {
		t.Helper()
		p := filepath.Join(dir, name)
		log, err := artifact.Create(p, fp)
		if err != nil {
			t.Fatal(err)
		}
		fill(log)
		log.Close()
		return p
	}
	payload := EncodeSamples(make([]experiments.Sample, spec.Trials))
	differs := EncodeSamples([]experiments.Sample{{OK: true, Value: 1}, {}, {}})

	a := mkLog("a.cells", func(l *artifact.Log) {
		l.Append(cls[0].Key, payload)
		l.Append(cls[1].Key, payload)
	})
	dup := mkLog("dup.cells", func(l *artifact.Log) {
		l.Append(cls[1].Key, payload) // byte-equal duplicate of a's record
	})
	st, err := Merge(spec, filepath.Join(dir, "ok.cells"), []string{a, dup})
	if err != nil {
		t.Fatalf("equal-payload duplicate: %v", err)
	}
	if st.Records != 2 || st.Deduped != 1 {
		t.Fatalf("merge stats = %+v, want 2 records with 1 deduped", st)
	}

	conflict := mkLog("conflict.cells", func(l *artifact.Log) {
		l.Append(cls[0].Key, differs)
	})
	dst := filepath.Join(dir, "bad.cells")
	if _, err := Merge(spec, dst, []string{a, conflict}); err == nil {
		t.Fatal("conflicting payloads for one key merged silently")
	}
	if _, serr := os.Stat(dst); serr == nil {
		t.Fatal("failed merge left a destination file behind")
	}
}

// TestMergePartialThenResume: merging a strict subset of shards yields
// a valid partial log; a resumed campaign over it runs exactly the
// missing shard and still matches the uninterrupted artifact.
func TestMergePartialThenResume(t *testing.T) {
	spec := tinySpec()
	fp := Fingerprint(spec)
	dir := t.TempDir()
	want, err := sweep.Run(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	var srcs []string
	var shardCells [shards]int
	for i := range shards {
		p := filepath.Join(dir, fmt.Sprintf("s%d.cells", i))
		log, err := artifact.Create(p, fp)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := Run(context.Background(), spec, Options{Workers: 1, Log: log, Owns: roundRobin(i, shards)})
		if err != nil {
			t.Fatal(err)
		}
		shardCells[i] = st.Cells
		log.Close()
		srcs = append(srcs, p)
	}

	mergedPath := filepath.Join(dir, "partial.cells")
	st, err := Merge(spec, mergedPath, srcs[:2]) // drop shard 2
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != shardCells[0]+shardCells[1] {
		t.Fatalf("partial merge wrote %d records, want %d", st.Records, shardCells[0]+shardCells[1])
	}

	merged, err := artifact.Open(mergedPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	got, stats, err := Run(context.Background(), spec, Options{Workers: 2, Log: merged})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran != shardCells[2] || stats.Skipped != shardCells[0]+shardCells[1] {
		t.Fatalf("resume over partial merge: %+v, want ran=%d", stats, shardCells[2])
	}
	if !bytes.Equal(encodeResult(t, got), encodeResult(t, want)) {
		t.Fatal("artifact completed from a partial merge differs from uninterrupted run")
	}
}

// TestMergeRejectsBadRecords: payloads with the wrong trial count and
// keys outside the grid are refused before anything is written.
func TestMergeRejectsBadRecords(t *testing.T) {
	spec := tinySpec()
	fp := Fingerprint(spec)
	dir := t.TempDir()
	s := spec
	s.Normalize()
	cls := sweep.Expand(s)

	shortPath := filepath.Join(dir, "short.cells")
	log, err := artifact.Create(shortPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(cls[0].Key, EncodeSamples(make([]experiments.Sample, spec.Trials-1)))
	log.Close()
	if _, err := Merge(spec, filepath.Join(dir, "d1.cells"), []string{shortPath}); err == nil {
		t.Fatal("payload with the wrong trial count merged")
	}

	foreignPath := filepath.Join(dir, "foreign.cells")
	log, err = artifact.Create(foreignPath, fp)
	if err != nil {
		t.Fatal(err)
	}
	log.Append("no|such|cell", EncodeSamples(make([]experiments.Sample, spec.Trials)))
	log.Close()
	if _, err := Merge(spec, filepath.Join(dir, "d2.cells"), []string{foreignPath}); err == nil {
		t.Fatal("record for a key outside the grid merged")
	}
}
