package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestJSONGolden is the byte-level regression gate on `llcrepro -json`:
// fig3 and table5 (whose latency columns read the covert channel's
// prime and probe series) at two trials, seed 7. Each committed golden
// report must reproduce exactly at any worker count on the architecture
// that generated it (cross-architecture runs may shift a float summary
// by a last ulp via fused multiply-add). Any
// drift — a float formatting change, a row reordering, an accidental
// seed perturbation — fails this test; if the change is intentional,
// regenerate with `go test ./cmd/llcrepro -run TestJSONGolden -update`.
func TestJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	for _, exp := range []string{"fig3", "table5"} {
		args := []string{"-exp", exp, "-trials", "2", "-seed", "7", "-json"}
		golden := filepath.Join("testdata", exp+"_trials2_seed7.golden.json")

		for _, workers := range []int{1, 8} {
			var stdout, stderr bytes.Buffer
			if code := run(append(args, "-parallel", strconv.Itoa(workers)), &stdout, &stderr); code != 0 {
				t.Fatalf("%s: run exited %d: %s", exp, code, stderr.String())
			}
			if *update && workers == 1 {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", golden, stdout.Len())
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create it): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("-parallel=%d output drifted from %s:\ngot:\n%s\nwant:\n%s",
					workers, golden, stdout.Bytes(), want)
			}
		}
	}
}

func TestRunBadArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
	if code := run([]string{"-exp", "fig2", "-defense", "moat"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad defense spec: exit %d, want 2", code)
	}
	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
		t.Errorf("-list: exit %d, output %q", code, stdout.String())
	}
	if !bytes.Contains(stdout.Bytes(), []byte("defense models")) {
		t.Error("-list does not mention the defense registry")
	}
}

// TestDefenseOverride runs one cheap experiment against a defended
// host: the flag must thread through Options into every runner config
// without error.
func TestDefenseOverride(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig2", "-trials", "1", "-seed", "3",
		"-defense", "quiesce:quantum=128"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("defended fig2 exited %d: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("defended fig2 produced no report")
	}
}
