package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestObsByteIdentity pins determinism clause 9 for llcsweep: a 2x2
// grid's artifact is byte-identical with and without -trace/-metrics,
// at -parallel 1 and 8; the trace parses as Chrome trace_event JSON
// with one named process per grid cell, and the -metrics stderr dump
// carries the engine's trial counters in Prometheus text.
func TestObsByteIdentity(t *testing.T) {
	base := []string{
		"-experiments", "evset/bins,scenario/covert/channel/stream",
		"-policies", "LRU,QLRU",
		"-trials", "3", "-seed", "7",
	}
	runSweep := func(extra ...string) (stdout, stderr bytes.Buffer) {
		t.Helper()
		var code int
		if code = run(context.Background(), append(append([]string{}, base...), extra...), &stdout, &stderr); code != 0 {
			t.Fatalf("run %v exited %d: %s", extra, code, stderr.String())
		}
		return
	}

	plain, _ := runSweep("-parallel", "1")
	want := plain.Bytes()

	for _, workers := range []int{1, 8} {
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		stdout, stderr := runSweep(
			"-parallel", strconv.Itoa(workers),
			"-trace", tracePath, "-metrics",
		)
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("-parallel=%d: telemetered artifact drifted from the plain run", workers)
		}

		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Cat  string `json:"cat"`
				Ph   string `json:"ph"`
				PID  int    `json:"pid"`
				Args struct {
					Name string `json:"name"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("-parallel=%d: trace is not valid JSON: %v", workers, err)
		}
		cells := make(map[string]bool)
		spans := 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "M" && ev.Name == "process_name" {
				cells[ev.Args.Name] = true
			}
			if ev.Ph == "X" {
				spans++
			}
		}
		// 2 experiments x 2 policies = 4 cell processes.
		if len(cells) != 4 {
			t.Errorf("-parallel=%d: trace names %d cell processes, want 4: %v", workers, len(cells), cells)
		}
		for _, frag := range []string{"evset/bins", "scenario/covert/channel/stream", "LRU", "QLRU"} {
			found := false
			for name := range cells {
				if strings.Contains(name, frag) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("-parallel=%d: no cell process name mentions %q: %v", workers, frag, cells)
			}
		}
		if spans == 0 {
			t.Errorf("-parallel=%d: trace holds no spans", workers)
		}

		// The metrics dump is Prometheus text on stderr after the marker
		// line; 4 cells x 3 trials = 12 engine trials.
		serr := stderr.String()
		if !strings.Contains(serr, "llcsweep: metrics:") {
			t.Fatalf("-parallel=%d: stderr lacks the metrics marker:\n%s", workers, serr)
		}
		for _, wantLine := range []string{
			"# TYPE engine_trials_total counter",
			"engine_trials_total 12",
			"# TYPE engine_trial_seconds histogram",
			"engine_trial_seconds_count 12",
		} {
			if !strings.Contains(serr, wantLine) {
				t.Errorf("-parallel=%d: metrics dump lacks %q:\n%s", workers, wantLine, serr)
			}
		}
	}
}

// TestObsCheckpointCampaignMetrics covers the campaign path: a
// checkpointed run with -metrics reports the campaign counters
// (computed cells, append bytes, per-cell histogram) and a resumed
// rerun reports every cell as resumed — while both artifacts stay
// byte-identical to the flattened run's.
func TestObsCheckpointCampaignMetrics(t *testing.T) {
	base := []string{
		"-experiments", "evset/bins,probe/parallel",
		"-policies", "LRU,QLRU",
		"-trials", "3", "-seed", "7",
	}
	var plain bytes.Buffer
	if code := run(context.Background(), append(append([]string{}, base...), "-parallel", "1"), &plain, &bytes.Buffer{}); code != 0 {
		t.Fatal("plain run failed")
	}

	ckpt := filepath.Join(t.TempDir(), "grid.cells")
	var out1, err1 bytes.Buffer
	args1 := append(append([]string{}, base...), "-checkpoint", ckpt, "-metrics", "-parallel", "2")
	if code := run(context.Background(), args1, &out1, &err1); code != 0 {
		t.Fatalf("checkpointed run exited %d: %s", code, err1.String())
	}
	if !bytes.Equal(out1.Bytes(), plain.Bytes()) {
		t.Error("checkpointed telemetered artifact drifted from the plain run")
	}
	for _, want := range []string{
		`campaign_cells_total{state="computed"} 4`,
		"# TYPE campaign_cell_seconds histogram",
		"campaign_cell_seconds_count 4",
		"# TYPE campaign_append_bytes_total counter",
	} {
		if !strings.Contains(err1.String(), want) {
			t.Errorf("checkpointed metrics lack %q:\n%s", want, err1.String())
		}
	}

	var out2, err2 bytes.Buffer
	args2 := append(append([]string{}, base...), "-checkpoint", ckpt, "-resume", "-metrics", "-parallel", "2")
	if code := run(context.Background(), args2, &out2, &err2); code != 0 {
		t.Fatalf("resumed run exited %d: %s", code, err2.String())
	}
	if !bytes.Equal(out2.Bytes(), plain.Bytes()) {
		t.Error("resumed telemetered artifact drifted from the plain run")
	}
	if !strings.Contains(err2.String(), `campaign_cells_total{state="resumed"} 4`) {
		t.Errorf("resumed metrics lack the resumed counter:\n%s", err2.String())
	}
}
