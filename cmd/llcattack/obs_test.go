package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// traceDoc mirrors the Chrome trace_event JSON the -trace flag writes.
type traceDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args struct {
			Name      string `json:"name"`
			SimCycles int64  `json:"sim_cycles"`
			WallUs    any    `json:"wall_us"`
			OK        any    `json:"ok"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceByteIdentity pins determinism clause 9 for llcattack: the
// report written with -trace is byte-identical to the committed golden
// written without it, at -parallel 1 and 8, and the trace itself is a
// parseable Chrome trace_event document whose per-trial cat="phase"
// sim-cycle totals sum exactly to that trial's reported cycle budget
// (the "unattributed" filler span closes any gap by construction).
func TestTraceByteIdentity(t *testing.T) {
	golden := filepath.Join("testdata", "covertstream_trials4_seed5.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var rep struct {
		Outcomes []struct {
			TotalCycles int64 `json:"total_cycles"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatalf("golden is not a report: %v", err)
	}

	for _, workers := range []int{1, 8} {
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		args := []string{
			"-scenario", "covert/channel/stream", "-trials", "4", "-seed", "5",
			"-parallel", strconv.Itoa(workers), "-trace", tracePath,
		}
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("run exited %d: %s", code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("-parallel=%d: traced report drifted from the untraced golden %s", workers, golden)
		}

		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		var doc traceDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("-parallel=%d: trace is not valid JSON: %v", workers, err)
		}

		// The scenario process must be named, and every expected phase of
		// the covert-channel pipeline must appear.
		named := false
		phases := make(map[string]bool)
		perTrial := make(map[int]int64)
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "M" && ev.Name == "process_name" && ev.Args.Name == "scenario covert/channel/stream" {
				named = true
			}
			if ev.Cat == "phase" {
				if ev.Ph != "X" {
					t.Fatalf("phase span %q has ph=%q, want X", ev.Name, ev.Ph)
				}
				phases[ev.Name] = true
				perTrial[ev.TID] += ev.Args.SimCycles
			}
		}
		if !named {
			t.Error("trace has no process_name metadata for the scenario")
		}
		for _, want := range []string{"build", "channel"} {
			if !phases[want] {
				t.Errorf("trace lacks phase %q; got %v", want, phases)
			}
		}

		// Clause 9's attribution guarantee: phase spans partition each
		// trial's simulated time exactly.
		if len(perTrial) != len(rep.Outcomes) {
			t.Fatalf("trace covers %d trials, report has %d outcomes", len(perTrial), len(rep.Outcomes))
		}
		for tid, sum := range perTrial {
			if want := rep.Outcomes[tid].TotalCycles; sum != want {
				t.Errorf("trial %d: phase spans sum to %d sim cycles, report says %d", tid, sum, want)
			}
		}
	}
}
