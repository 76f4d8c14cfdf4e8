package obs

import (
	"context"
	"encoding/json"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
)

// Span is one traced interval on a (PID, TID) track. Its timeline
// coordinates (Start, Dur) are SIMULATED cycles — deterministic, from
// the trial's host clock — while Wall carries the phase's host-side
// cost for attribution only (clock-domain rule: wall time appears in a
// span's args, never on the ts/dur axis).
type Span struct {
	// Name is the phase ("train", "build", "scan", "extract",
	// "lattice", ...); Cat groups spans for filtering ("phase" for
	// pipeline steps, "probe" for per-signing captures).
	Name string
	Cat  string
	// PID and TID place the span on a track: by convention PID is the
	// scenario or grid-cell index and TID the trial index.
	PID, TID int
	// Start and Dur are the span's simulated-cycle interval on the
	// trial's host clock.
	Start, Dur clock.Cycles
	// Wall is the host time the phase cost, attribution-only.
	Wall time.Duration
	// OK mirrors the step's success flag.
	OK bool
}

// Tracer collects spans concurrently and renders them as Chrome
// trace_event JSON (Perfetto-viewable). Emission order does not
// matter: WriteJSON sorts spans by (PID, TID, Start, Name), so the
// file is deterministic for any worker count. A nil Tracer drops
// everything (the disabled path).
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	procs map[int]string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{procs: make(map[int]string)}
}

// Emit records one span (no-op on a nil receiver). Safe for
// concurrent use.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// SetProcessName names a PID track group (trace_event "process_name"
// metadata); no-op on a nil receiver.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// Len returns the number of emitted spans (0 on a nil receiver).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a sorted copy of the emitted spans — (PID, TID,
// Start, Name) order, the same order WriteJSON renders — for tests
// and summaries. Nil on a nil receiver.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

func sortSpans(s []Span) {
	sort.SliceStable(s, func(a, b int) bool {
		if s[a].PID != s[b].PID {
			return s[a].PID < s[b].PID
		}
		if s[a].TID != s[b].TID {
			return s[a].TID < s[b].TID
		}
		if s[a].Start != s[b].Start {
			return s[a].Start < s[b].Start
		}
		return s[a].Name < s[b].Name
	})
}

// traceEvent is one Chrome trace_event object ("X" complete events
// for spans, "M" metadata events for track names).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the trace_event JSON object format (the array-of-events
// form wrapped with metadata), which Perfetto and chrome://tracing
// both load.
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// WriteJSON renders the trace as Chrome trace_event JSON: ts/dur in
// microseconds of SIMULATED time (cycles at the paper's 2 GHz), wall
// time and cycle counts in each span's args. Output is deterministic:
// metadata first in track order, then spans in (PID, TID, Start,
// Name) order, with map-free encoding except args (whose keys
// encoding/json sorts). A nil tracer writes an empty, still-valid
// trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	f := traceFile{
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"clock_domain": "simulated cycles at 2 GHz; wall_us in args is host time",
		},
		TraceEvents: []traceEvent{},
	}
	if t != nil {
		t.mu.Lock()
		spans := append([]Span(nil), t.spans...)
		pids := make([]int, 0, len(t.procs))
		for pid := range t.procs {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": t.procs[pid]},
			})
		}
		t.mu.Unlock()
		sortSpans(spans)
		for _, s := range spans {
			dur := s.Dur.Micros()
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				TS: s.Start.Micros(), Dur: &dur,
				PID: s.PID, TID: s.TID,
				Args: map[string]any{
					"sim_cycles": uint64(s.Dur),
					"wall_us":    float64(s.Wall) / float64(time.Microsecond),
					"ok":         s.OK,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// TrialTrace binds a Tracer to one trial's (PID, TID) track; the
// engine attaches one to every Trial when a run is traced, and
// instrumented code calls Span unconditionally — a nil TrialTrace (the
// untraced run) drops everything at zero cost.
type TrialTrace struct {
	// Tracer receives the spans.
	Tracer *Tracer
	// PID and TID are the trial's track (scenario/cell index and trial
	// index by convention).
	PID, TID int
}

// Enabled reports whether spans emitted here go anywhere.
func (tt *TrialTrace) Enabled() bool { return tt != nil && tt.Tracer != nil }

// Span emits one span on this trial's track (no-op when disabled).
func (tt *TrialTrace) Span(name, cat string, start, dur clock.Cycles, wall time.Duration, ok bool) {
	if tt == nil || tt.Tracer == nil {
		return
	}
	tt.Tracer.Emit(Span{
		Name: name, Cat: cat, PID: tt.PID, TID: tt.TID,
		Start: start, Dur: dur, Wall: wall, OK: ok,
	})
}

// Step is one pipeline step of a trial: its name, its success flag and
// the simulated cycles it advanced the trial's host clock by.
type Step struct {
	Name   string       `json:"name"`
	OK     bool         `json:"ok"`
	Cycles clock.Cycles `json:"cycles"`
}

// Phases records one trial's pipeline steps. Its Run is the one place
// a step is marked: it labels the step for pprof, times it on the host
// clock and the wall clock, traces it and records it, all around the
// call that does the work. Recording only reads clocks, never a rng
// stream, so a traced trial's steps are byte-identical to an untraced
// one's (clause 9). A nil *Phases runs steps unrecorded.
type Phases struct {
	labels context.Context
	trace  *TrialTrace
	clk    *clock.Clock
	steps  []Step
	// origin and end are the host clock at the first step's start and
	// at the last step's end.
	origin, end clock.Cycles
	// On a traced trial, gaps are the stretches of cycles no step
	// covered, wallEnd is when the last step ended on the wall clock
	// (the recorder's creation before the first), and idle is host
	// time outside steps that no gap has taken yet.
	gaps    []gap
	wallEnd time.Time
	idle    time.Duration
}

// gap is one stretch of a trial's cycles between steps, with the host
// time it took.
type gap struct {
	start, dur clock.Cycles
	wall       time.Duration
}

// NewPhases returns the recorder of one trial whose steps run under the
// pprof labels of labels (nil for none) and, when tr is enabled, land
// on tr as cat="phase" spans.
func NewPhases(labels context.Context, tr *TrialTrace) *Phases {
	if labels == nil {
		labels = context.Background()
	}
	p := &Phases{labels: labels, trace: tr, clk: new(clock.Clock)}
	if tr.Enabled() {
		p.wallEnd = time.Now()
	}
	return p
}

// Bind points the recorder at the trial's host clock. Until then it
// reads a clock stopped at zero, as a freshly reset host's reads, so a
// step that obtains the host itself can bind from inside its f.
func (p *Phases) Bind(c *clock.Clock) {
	if p != nil {
		p.clk = c
	}
}

// Run runs f as the step name and returns f's success flag. f runs
// under the pprof label phase=name on top of the trial's labels; the
// step is recorded with the cycles f advanced the host clock by and, on
// a traced trial, emitted as a cat="phase" span carrying the wall time
// of f itself.
func (p *Phases) Run(name string, f func() bool) bool {
	if p == nil {
		return f()
	}
	start := p.clk.Now()
	if len(p.steps) == 0 {
		p.origin, p.end = start, start
	}
	traced := p.trace.Enabled()
	var ok bool
	var w0, w1 time.Time
	pprof.Do(p.labels, pprof.Labels("phase", name), func(context.Context) {
		if traced {
			w0 = time.Now()
		}
		ok = f()
		if traced {
			w1 = time.Now()
		}
	})
	d := p.clk.Now() - start
	p.steps = append(p.steps, Step{Name: name, OK: ok, Cycles: d})
	if traced {
		p.noteGap(start, w0)
		p.trace.Span(name, "phase", start, d, w1.Sub(w0), ok)
		p.wallEnd = w1
	}
	p.end = start + d
	return ok
}

// noteGap notes the cycles from the last step's end to start, which
// the wall clock reached at w, as a gap. Host time spent where no
// cycles passed carries over to the next gap.
func (p *Phases) noteGap(start clock.Cycles, w time.Time) {
	p.idle += w.Sub(p.wallEnd)
	if start > p.end {
		p.gaps = append(p.gaps, gap{start: p.end, dur: start - p.end, wall: p.idle})
		p.idle = 0
	}
}

// Finish closes the trial, whose end-to-end success is ok, and returns
// its steps and its cycles from the first step's start. On a traced
// trial each stretch of cycles no step covered becomes an
// "unattributed" phase span at its own position, carrying the host time
// spent there, so a trial's phase spans tile its cycles exactly.
func (p *Phases) Finish(ok bool) ([]Step, clock.Cycles) {
	if p == nil {
		return nil, 0
	}
	now := p.clk.Now()
	if p.trace.Enabled() {
		p.noteGap(now, time.Now())
		for _, g := range p.gaps {
			p.trace.Span("unattributed", "phase", g.start, g.dur, g.wall, ok)
		}
	}
	return p.steps, now - p.origin
}

// Sink bundles the observability outputs a run threads through its
// layers: a metrics registry and a tracer. Either may be nil; a nil
// *Sink disables everything.
type Sink struct {
	// Metrics receives counters/gauges/histograms (nil = off).
	Metrics *Registry
	// Tracer receives spans (nil = off).
	Tracer *Tracer
}
