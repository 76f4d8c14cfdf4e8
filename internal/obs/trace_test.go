package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// decodeTrace parses WriteJSON output back into generic JSON for
// assertions, failing the test on malformed output.
func decodeTrace(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var f map[string]any
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if _, ok := f["traceEvents"].([]any); !ok {
		t.Fatalf("trace has no traceEvents array: %v", f)
	}
	return f
}

// TestWriteJSONDeterministic pins the trace file's ordering: spans
// emitted out of order render sorted by (pid, tid, start), after the
// metadata events, with simulated-microsecond timestamps.
func TestWriteJSONDeterministic(t *testing.T) {
	mk := func(order []int) []byte {
		tr := NewTracer()
		tr.SetProcessName(1, "cell-b")
		tr.SetProcessName(0, "cell-a")
		spans := []Span{
			{Name: "build", Cat: "phase", PID: 0, TID: 0, Start: 0, Dur: 2000, Wall: time.Millisecond, OK: true},
			{Name: "scan", Cat: "phase", PID: 0, TID: 0, Start: 2000, Dur: 4000, OK: true},
			{Name: "build", Cat: "phase", PID: 1, TID: 0, Start: 0, Dur: 1000, OK: false},
		}
		for _, i := range order {
			tr.Emit(spans[i])
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := mk([]int{0, 1, 2})
	b := mk([]int{2, 1, 0})
	if !bytes.Equal(a, b) {
		t.Fatalf("emission order changed the trace file:\n%s\nvs\n%s", a, b)
	}
	f := decodeTrace(t, a)
	evs := f["traceEvents"].([]any)
	if len(evs) != 5 { // 2 process_name + 3 spans
		t.Fatalf("got %d events, want 5: %s", len(evs), a)
	}
	first := evs[0].(map[string]any)
	if first["ph"] != "M" || first["name"] != "process_name" {
		t.Fatalf("metadata must lead: %v", first)
	}
	span := evs[2].(map[string]any)
	if span["name"] != "build" || span["ph"] != "X" {
		t.Fatalf("first span = %v", span)
	}
	// 2000 cycles at 2 GHz = 1 simulated microsecond.
	if span["dur"].(float64) != 1 {
		t.Fatalf("dur = %v, want 1 (simulated us)", span["dur"])
	}
	args := span["args"].(map[string]any)
	if args["sim_cycles"].(float64) != 2000 || args["wall_us"].(float64) != 1000 {
		t.Fatalf("args = %v", args)
	}
}

// TestEmptyTraceStillParses: a tracer with no spans (or nil) still
// writes a loadable file.
func TestEmptyTraceStillParses(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decodeTrace(t, buf.Bytes())
	buf.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decodeTrace(t, buf.Bytes())
}

// TestTrialTraceRouting: spans land on the trial's track.
func TestTrialTraceRouting(t *testing.T) {
	tr := NewTracer()
	tt := &TrialTrace{Tracer: tr, PID: 3, TID: 7}
	if !tt.Enabled() {
		t.Fatal("bound TrialTrace must be enabled")
	}
	tt.Span("extract", "phase", clock.Cycles(10), clock.Cycles(5), 0, true)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].PID != 3 || spans[0].TID != 7 || spans[0].Name != "extract" {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestTracerConcurrentEmit exercises Emit under -race.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Span{Name: "s", PID: w, TID: i})
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("len = %d, want 800", tr.Len())
	}
}

// TestPhasesRecordsSteps pins the step recorder: each step's cycles are
// the host clock's advance across f, its ok is f's result, an unbound
// clock reads zero until f binds one, the span's wall time covers f,
// each stretch of cycles no step covered becomes an "unattributed" span
// at its own position, and an untraced recorder keeps the steps but
// emits nothing.
func TestPhasesRecordsSteps(t *testing.T) {
	const nap = 2 * time.Millisecond
	run := func(tr *TrialTrace) ([]Step, clock.Cycles) {
		clk := clock.New(0, nil)
		p := NewPhases(nil, tr)
		// f binds a clock that reads 100: the unbound clock read zero
		// at the step's start, so the step is charged all of it.
		clk.Advance(100)
		if !p.Run("build", func() bool { p.Bind(clk); clk.Advance(400); return true }) {
			t.Fatal("Run did not return f's true")
		}
		clk.Advance(7) // between steps: unattributed
		if p.Run("scan", func() bool { time.Sleep(nap); clk.Advance(1000); return false }) {
			t.Fatal("Run did not return f's false")
		}
		clk.Advance(3) // after the last step: unattributed
		return p.Finish(false)
	}
	want := []Step{{Name: "build", OK: true, Cycles: 500}, {Name: "scan", OK: false, Cycles: 1000}}

	steps, total := run(nil)
	if !reflect.DeepEqual(steps, want) || total != 1510 {
		t.Fatalf("untraced: steps %+v total %d, want %+v total 1510", steps, total, want)
	}

	tracer := NewTracer()
	steps, total = run(&TrialTrace{Tracer: tracer, PID: 1, TID: 2})
	if !reflect.DeepEqual(steps, want) || total != 1510 {
		t.Fatalf("traced: steps %+v total %d, want %+v total 1510", steps, total, want)
	}
	spans := tracer.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want build, scan and two fillers: %+v", len(spans), spans)
	}
	var sum clock.Cycles
	for i, s := range spans {
		if s.Cat != "phase" || s.PID != 1 || s.TID != 2 {
			t.Errorf("span %d %+v not a phase span on track (1, 2)", i, s)
		}
		sum += s.Dur
	}
	if sum != total {
		t.Errorf("phase spans sum to %d cycles, trial took %d", sum, total)
	}
	if s := spans[0]; s.Name != "build" || s.Start != 0 || s.Dur != 500 || !s.OK {
		t.Errorf("build span %+v", s)
	}
	if s := spans[1]; s.Name != "unattributed" || s.Start != 500 || s.Dur != 7 || s.OK {
		t.Errorf("filler span %+v, want the 7 cycles between build and scan", s)
	}
	if s := spans[2]; s.Name != "scan" || s.Start != 507 || s.Dur != 1000 || s.OK || s.Wall < nap {
		t.Errorf("scan span %+v, want wall >= %v", s, nap)
	}
	if s := spans[3]; s.Name != "unattributed" || s.Start != 1507 || s.Dur != 3 || s.OK {
		t.Errorf("filler span %+v, want the 3 cycles after scan", s)
	}

	// A nil recorder just runs f.
	var p *Phases
	ran := false
	if !p.Run("x", func() bool { ran = true; return true }) || !ran {
		t.Fatal("nil recorder did not run f")
	}
	if steps, total := p.Finish(true); steps != nil || total != 0 {
		t.Fatalf("nil recorder finished with %+v, %d", steps, total)
	}
}
