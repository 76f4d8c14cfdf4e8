package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// tinyArgs is a fast 4-cell grid (2 experiments x 2 policies, 3 trials)
// shared by the checkpoint tests.
func tinyArgs(extra ...string) []string {
	args := []string{
		"-experiments", "evset/bins,probe/parallel",
		"-policies", "LRU,QLRU",
		"-trials", "3",
		"-seed", "7",
		"-parallel", "2",
	}
	return append(args, extra...)
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), tinyArgs("-resume"), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-resume requires -checkpoint") {
		t.Fatalf("stderr does not explain the flag dependency: %s", stderr.String())
	}
}

func TestExistingCheckpointRequiresResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "grid.cells")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), tinyArgs("-checkpoint", ck), &stdout, &stderr); code != 0 {
		t.Fatalf("first run: exit %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	// Rerunning against the finished log without -resume must refuse:
	// silently overwriting a checkpoint is exactly the data loss the
	// flag exists to prevent.
	if code := run(context.Background(), tinyArgs("-checkpoint", ck), &stdout, &stderr); code != 2 {
		t.Fatalf("rerun without -resume: exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "pass -resume") {
		t.Fatalf("stderr does not point at -resume: %s", stderr.String())
	}
}

// TestResumedArtifactByteIdentical runs the grid three ways — flat
// (no checkpoint), checkpointed from scratch, and resumed against the
// finished log — and requires all three artifacts byte-identical. The
// resume pass must also report every cell as skipped.
func TestResumedArtifactByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "grid.cells")

	var flat, ckpt, resumed, stderr bytes.Buffer
	if code := run(context.Background(), tinyArgs(), &flat, &stderr); code != 0 {
		t.Fatalf("flat run: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), tinyArgs("-checkpoint", ck), &ckpt, &stderr); code != 0 {
		t.Fatalf("checkpointed run: exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(flat.Bytes(), ckpt.Bytes()) {
		t.Fatalf("checkpointed artifact differs from the flat sweep artifact")
	}
	stderr.Reset()
	if code := run(context.Background(), tinyArgs("-checkpoint", ck, "-resume"), &resumed, &stderr); code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(flat.Bytes(), resumed.Bytes()) {
		t.Fatalf("resumed artifact differs from the flat sweep artifact")
	}
	if !strings.Contains(stderr.String(), "skipped 4 verified cell(s), ran 0 of 4") {
		t.Fatalf("resume summary missing or wrong: %s", stderr.String())
	}
}

func TestResumeAgainstWrongSpecRejected(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "grid.cells")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), tinyArgs("-checkpoint", ck), &stdout, &stderr); code != 0 {
		t.Fatalf("first run: exit %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	// Same log, different seed: the fingerprint check must refuse to mix
	// two grids rather than aggregate stale samples.
	args := tinyArgs("-checkpoint", ck, "-resume")
	for i, a := range args {
		if a == "7" {
			args[i] = "8"
		}
	}
	if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
		t.Fatalf("resume with changed seed: exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fingerprint") {
		t.Fatalf("stderr does not mention the fingerprint mismatch: %s", stderr.String())
	}
}

// TestInterruptRemovesTempArtifact is the regression test for the
// staging-file leak: SIGINT mid-sweep must cancel the run, remove the
// .tmp-* staging file next to -o, leave the -o target absent, and exit
// non-zero. Before the signal-context fix, the default SIGINT
// disposition killed the process with the temp file still on disk.
func TestInterruptRemovesTempArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a child process")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "llcsweep")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	outPath := filepath.Join(dir, "artifact.json")
	// A grid long enough that the SIGINT always lands mid-run:
	// probe/parallel at ~2.5ms/trial sequential gives tens of seconds.
	cmd := exec.Command(bin,
		"-experiments", "probe/parallel", "-policies", "LRU",
		"-trials", "20000", "-parallel", "1", "-o", outPath)
	var childErr bytes.Buffer
	cmd.Stderr = &childErr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}

	// The staging file is created before compute starts; wait for it so
	// the signal provably arrives while the sweep is running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(dir, "artifact.json.tmp-*")); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("staging file never appeared; child stderr: %s", childErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("signal: %v", err)
	}
	err = cmd.Wait()
	if err == nil {
		t.Fatalf("child exited 0 after SIGINT; stderr: %s", childErr.String())
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() < 1 {
		// ExitCode -1 would mean death BY the signal — i.e. the handler
		// never ran and cleanup cannot have happened.
		t.Fatalf("child did not exit cleanly non-zero: %v; stderr: %s", err, childErr.String())
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "artifact.json.tmp-*")); len(m) > 0 {
		t.Fatalf("staging litter survived SIGINT: %v", m)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("interrupted run installed an artifact at %s", outPath)
	}
	if !strings.Contains(childErr.String(), "context canceled") && !strings.Contains(childErr.String(), "interrupt") {
		t.Fatalf("child stderr does not attribute the failure to the signal: %s", childErr.String())
	}
}

// TestShardMergeCLI is the end-to-end tentpole flow at the CLI level:
// run the grid as 3 separate -shard invocations, -merge the logs, and
// require the merged log byte-identical to a sequential
// single-process checkpoint plus a resume that skips every cell and
// emits the byte-identical artifact.
func TestShardMergeCLI(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.cells")

	var refOut, stderr bytes.Buffer
	if code := run(context.Background(), tinyArgs("-parallel", "1", "-checkpoint", ref), &refOut, &stderr); code != 0 {
		t.Fatalf("reference run: exit %d, stderr: %s", code, stderr.String())
	}

	var shardLogs []string
	for i := range 3 {
		p := filepath.Join(dir, fmt.Sprintf("s%d.cells", i))
		shardLogs = append(shardLogs, p)
		var stdout bytes.Buffer
		stderr.Reset()
		code := run(context.Background(), tinyArgs("-shard", fmt.Sprintf("%d/3", i), "-checkpoint", p), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", i, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("shard %d wrote an artifact to stdout: %q", i, stdout.String())
		}
		if !strings.Contains(stderr.String(), fmt.Sprintf("shard %d/3", i)) {
			t.Fatalf("shard %d summary missing: %s", i, stderr.String())
		}
	}

	merged := filepath.Join(dir, "merged.cells")
	var stdout bytes.Buffer
	stderr.Reset()
	code := run(context.Background(), tinyArgs("-merge", strings.Join(shardLogs, ","), "-checkpoint", merged), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "merged 3 log(s)") || !strings.Contains(stderr.String(), "0 grid cell(s) still missing") {
		t.Fatalf("merge summary missing: %s", stderr.String())
	}
	refBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatal("merged log differs from the single-process checkpoint log")
	}

	var resumed bytes.Buffer
	stderr.Reset()
	if code := run(context.Background(), tinyArgs("-checkpoint", merged, "-resume"), &resumed, &stderr); code != 0 {
		t.Fatalf("resume from merged: exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(refOut.Bytes(), resumed.Bytes()) {
		t.Fatal("artifact resumed from the merged log differs from the single-process artifact")
	}
	if !strings.Contains(stderr.String(), "skipped 4 verified cell(s), ran 0 of 4") {
		t.Fatalf("resume after merge re-ran cells: %s", stderr.String())
	}
}

// TestShardMergeFlagValidation pins the usage errors: malformed -shard
// values, -shard without -checkpoint or with artifact outputs, -merge
// with -resume, -shard with -merge and a spec file with trailing data
// are all exit 2 before any work. A spec file ending in a newline
// decodes, so its run gets as far as the -shard check.
func TestShardMergeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "x.cells")
	const spec = `{"experiments": ["evset/bins"], "trials": 3}`
	bracket := filepath.Join(dir, "bracket.json")
	newline := filepath.Join(dir, "newline.json")
	if err := os.WriteFile(bracket, []byte(spec+"]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newline, []byte(spec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad shard syntax", tinyArgs("-shard", "nope", "-checkpoint", ck), "bad -shard"},
		{"shard index out of range", tinyArgs("-shard", "3/3", "-checkpoint", ck), "bad -shard"},
		{"negative shard", tinyArgs("-shard", "-1/3", "-checkpoint", ck), "bad -shard"},
		{"shard needs checkpoint", tinyArgs("-shard", "0/3"), "-shard requires -checkpoint"},
		{"shard rejects -o", tinyArgs("-shard", "0/3", "-checkpoint", ck, "-o", filepath.Join(dir, "o.json")), "produces no aggregate artifact"},
		{"merge needs checkpoint", tinyArgs("-merge", "a.cells,b.cells"), "-merge requires -checkpoint"},
		{"merge rejects resume", tinyArgs("-merge", "a.cells,b.cells", "-checkpoint", ck, "-resume"), "-merge and -resume"},
		{"shard and merge exclusive", tinyArgs("-shard", "0/3", "-merge", "a.cells", "-checkpoint", ck), "mutually exclusive"},
		{"spec with trailing ]", []string{"-spec", bracket}, "after the spec"},
		{"spec ending in a newline", []string{"-spec", newline, "-shard", "0/3"}, "-shard requires -checkpoint"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2; stderr: %s", tc.name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("%s: stderr %q does not contain %q", tc.name, stderr.String(), tc.want)
		}
	}
}

// FuzzParseShard: parseShard is the only check on a -shard value (the
// campaign runs whatever cells it is told it owns), so every value it
// accepts must name a real shard, 0 <= i < N.
func FuzzParseShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		i, n, err := parseShard(s)
		if err == nil && !(0 <= i && i < n) {
			t.Fatalf("parseShard(%q) = %d/%d, want 0 <= i < N", s, i, n)
		}
	})
}

// TestResumeRecreatesTornHeader: a checkpoint torn before the header
// sync holds zero verified records; -resume must recreate it and run
// the full grid instead of failing forever.
func TestResumeRecreatesTornHeader(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "torn.cells")
	if err := os.WriteFile(ck, []byte("LLCA\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	var flat, got, stderr bytes.Buffer
	if code := run(context.Background(), tinyArgs(), &flat, &stderr); code != 0 {
		t.Fatalf("flat run: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), tinyArgs("-checkpoint", ck, "-resume"), &got, &stderr); code != 0 {
		t.Fatalf("resume over torn header: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "recreating") {
		t.Fatalf("recovery notice missing: %s", stderr.String())
	}
	if !bytes.Equal(flat.Bytes(), got.Bytes()) {
		t.Fatal("artifact after torn-header recovery differs from the flat run")
	}
}
