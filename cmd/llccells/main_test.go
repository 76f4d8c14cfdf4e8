package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/sweep"
)

// tinySpec mirrors the campaign tests' 4-cell grid.
func tinySpec() sweep.Spec {
	return sweep.Spec{
		Experiments: []string{"evset/bins", "probe/parallel"},
		Policies:    []string{"LRU", "QLRU"},
		Trials:      3,
		Seed:        7,
	}
}

// writeSpec persists the spec JSON the way an operator would.
func writeSpec(t *testing.T, dir string, spec sweep.Spec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// End in a newline, as an editor saves a file: trailing whitespace
	// is not trailing data.
	p := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(p, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// runCampaign fills path with a checkpoint log for the spec's cells
// that owns accepts (nil: the full grid).
func runCampaign(t *testing.T, spec sweep.Spec, path string, owns func(int) bool) {
	t.Helper()
	log, err := artifact.Create(path, campaign.Fingerprint(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, _, err = campaign.Run(context.Background(), spec, campaign.Options{Workers: 2, Log: log, Owns: owns})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExportMatchesSweep: exporting a complete log reproduces the
// sweep artifact byte-for-byte, for both the JSON and CSV views, with
// -o and on stdout.
func TestExportMatchesSweep(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	specPath := writeSpec(t, dir, spec)
	cells := filepath.Join(dir, "grid.cells")
	runCampaign(t, spec, cells, nil)

	res, err := sweep.Run(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := res.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specPath, "-cells", cells}, &stdout, &stderr); code != 0 {
		t.Fatalf("export: exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), wantJSON.Bytes()) {
		t.Fatal("exported JSON differs from sweep.Run artifact")
	}
	if stderr.Len() != 0 {
		t.Fatalf("complete log export wrote to stderr: %s", stderr.String())
	}

	out := filepath.Join(dir, "out.csv")
	stdout.Reset()
	if code := run([]string{"-spec", specPath, "-cells", cells, "-csv", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("csv export: exit %d, stderr: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantCSV.Bytes()) {
		t.Fatal("exported CSV differs from sweep.Run artifact")
	}
}

// TestPartialLogStatusAndExport: a single shard's log is a valid
// partial view — -status counts and lists the missing cells, and the
// export warns on stderr and aggregates only present cells.
func TestPartialLogStatusAndExport(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	specPath := writeSpec(t, dir, spec)
	cells := filepath.Join(dir, "s0.cells")
	runCampaign(t, spec, cells, func(ci int) bool { return ci%2 == 0 }) // shard 0/2: 2 of 4 cells

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specPath, "-cells", cells, "-status"}, &stdout, &stderr); code != 0 {
		t.Fatalf("status: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "2 of 4 grid cell(s) done, 2 missing") {
		t.Fatalf("status summary wrong: %s", stdout.String())
	}
	if got := strings.Count(stdout.String(), "missing "); got != 2 {
		t.Fatalf("status lists %d missing cells, want 2: %s", got, stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-spec", specPath, "-cells", cells}, &stdout, &stderr); code != 0 {
		t.Fatalf("partial export: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "2 cell(s) missing") {
		t.Fatalf("partial export did not warn about missing cells: %s", stderr.String())
	}
	var view struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &view); err != nil {
		t.Fatalf("partial export is not JSON: %v", err)
	}
	if len(view.Cells) != 2 {
		t.Fatalf("partial export aggregated %d cells, want exactly the 2 present", len(view.Cells))
	}
}

// TestFilterAndTrials: -filter narrows the view by key substring and
// -trials dumps one ndjson row per present cell with the raw samples.
func TestFilterAndTrials(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	specPath := writeSpec(t, dir, spec)
	cells := filepath.Join(dir, "grid.cells")
	runCampaign(t, spec, cells, nil)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specPath, "-cells", cells, "-filter", "QLRU", "-status"}, &stdout, &stderr); code != 0 {
		t.Fatalf("filtered status: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `2 of 2 cells matching "QLRU" cell(s) done, 0 missing`) {
		t.Fatalf("filtered status wrong: %s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-spec", specPath, "-cells", cells, "-trials"}, &stdout, &stderr); code != 0 {
		t.Fatalf("trials dump: exit %d, stderr: %s", code, stderr.String())
	}
	sc := bufio.NewScanner(bytes.NewReader(stdout.Bytes()))
	rows := 0
	for sc.Scan() {
		var row trialRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("trials row %d: %v", rows, err)
		}
		if row.Key == "" || row.Coords == "" || len(row.Trials) != spec.Trials {
			t.Fatalf("trials row %d malformed: %+v", rows, row)
		}
		rows++
	}
	if rows != 4 {
		t.Fatalf("trials dump has %d rows, want 4", rows)
	}
}

// TestUsageAndForeignLogErrors: missing flags and flag conflicts are
// exit 2; a log whose fingerprint does not match the spec is exit 1.
func TestUsageAndForeignLogErrors(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	specPath := writeSpec(t, dir, spec)
	cells := filepath.Join(dir, "grid.cells")
	runCampaign(t, spec, cells, nil)
	// A second value after the spec: decoding only the first would
	// render a different grid than the file declares.
	data, _ := json.Marshal(spec)
	trailing := filepath.Join(dir, "trailing.json")
	if err := os.WriteFile(trailing, append(data, `{"trials": -1}`...), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{},
		{"-spec", specPath},
		{"-cells", cells},
		{"-spec", specPath, "-cells", cells, "-status", "-trials"},
		{"-spec", trailing, "-cells", cells},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %v: exit %d, want 2; stderr: %s", args, code, stderr.String())
		}
	}

	other := tinySpec()
	other.Seed = 99
	otherPath := filepath.Join(dir, "other.json")
	data, _ = json.Marshal(other)
	if err := os.WriteFile(otherPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", otherPath, "-cells", cells}, &stdout, &stderr); code != 1 {
		t.Fatalf("foreign log: exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fingerprint") {
		t.Fatalf("foreign-log error does not mention the fingerprint: %s", stderr.String())
	}
}
