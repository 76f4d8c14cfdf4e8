package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// This file implements the parallel trial-orchestration engine every
// runner is built on. Runners describe their work as n independent
// trials; RunTrials fans the trials out over a worker pool and returns
// the samples in trial order. Determinism is preserved under any worker
// count by two rules:
//
//  1. Trial i's randomness is fully determined by its seed, which is
//     drawn from a splitmix64 stream (xrand.Stream) indexed by i — never
//     by worker identity or completion order.
//  2. A trial touches no state outside its own simulated host. Each
//     worker recycles one pooled host, and hierarchy.Host.Reset
//     restores a pooled host to the exact state hierarchy.NewHost would
//     produce for the trial's seed, so a recycled host replays the same
//     virtual-time behaviour as a fresh one.
//
// Together these make reports byte-identical between workers=1 and
// workers=N while letting steady-state trials allocate near-zero.

// Sample is one trial's contribution to a report: a success flag, a
// primary scalar (by convention the trial duration in cycles), optional
// extra scalars, and optional variable-length series.
type Sample struct {
	OK     bool
	Value  float64
	Extra  []float64
	Series [][]float64
}

// Trial hands a trial function its identity, its derived seed, and the
// worker-local host pool.
type Trial struct {
	// Index is the trial's position in [0, n); aggregation slices samples
	// by this index, so it also selects the grid cell in flattened runs.
	Index int
	// Seed is xrand.Stream(baseSeed, Index): the only randomness a trial
	// may consume, directly or via sub-seeds derived from it.
	Seed uint64
	// Trace is the trial's span track when the run is traced
	// (RunTrials with a Sink.Tracer), nil otherwise. Instrumented
	// runners call Trace.Span unconditionally — a nil TrialTrace drops
	// spans at zero cost — and must never let tracing touch a rng
	// stream or the simulated clock (determinism clause 9).
	Trace *obs.TrialTrace
	// Phases records the trial's pipeline steps (the scenario
	// runners'), each under the pprof labels the trial runs under (a
	// sweep cell's experiment and policy) and on its Trace track.
	Phases *obs.Phases
	pool   *hostPool
}

// WithSeed returns a copy of the trial carrying the given seed and the
// same worker-local host pool. The sweep runner uses it to re-root a
// trial's randomness in its grid cell's own seed stream, so a cell's
// results do not depend on its flat position in the grid.
func (t *Trial) WithSeed(seed uint64) *Trial {
	c := *t
	c.Seed = seed
	return &c
}

// Host returns a host with the given config, seeded for this trial —
// a pooled host reset to the seed when the worker has one, a fresh host
// otherwise. Both are behaviourally identical; callers must not hold a
// host across trials. Requesting the same config twice in one trial
// returns the same host, reset again.
func (t *Trial) Host(cfg hierarchy.Config, seed uint64) *hierarchy.Host {
	return t.pool.get(cfg, seed)
}

// hostPool holds one worker's host. Hosts carry large allocations
// (a uint32 frame free-list of 1 MiB per GiB of host memory, per-slice
// cache arrays), so reusing one across the worker's consecutive trials
// on an equal config (compared by Config.Key, a deterministic
// fingerprint string) drops the steady-state allocation rate of a trial
// to near zero. Reset still reshuffles the whole frame pool, one rng
// draw per frame, so reuse saves the allocation, not the shuffle.
// Runners lay a cell's trials out next to each other, so a worker
// changes config only at cell boundaries; it then drops the old host
// before building the new one, so a worker never holds more than one
// host however many configs a flattened run visits.
type hostPool struct {
	key  string
	host *hierarchy.Host
}

func (p *hostPool) get(cfg hierarchy.Config, seed uint64) *hierarchy.Host {
	key := cfg.Key()
	if p.host != nil && p.key == key {
		p.host.Reset(seed)
		return p.host
	}
	p.host = nil // collectable while NewHost allocates the next one
	p.host, p.key = hierarchy.NewHost(cfg, seed), key
	return p.host
}

// RunTrials executes n trials of fn across a worker pool and returns the
// samples in trial order. workers <= 0 selects GOMAXPROCS. Per-trial
// seeds are drawn from the splitmix64 stream rooted at seed, so the
// result is independent of the worker count and of scheduling order.
//
// A panicking trial is recovered on its worker and, once the pool has
// drained, returned as an error identifying the trial — so a buggy
// trial can neither deadlock the pool nor kill the process from an
// unrecoverable goroutine. A cancelled ctx stops the run between trials
// (in-flight trials finish; no new trials start) and returns ctx's
// error. Because cancellation is only ever checked on trial boundaries,
// the samples of trials that did complete are exactly what an
// uninterrupted run would have produced — which is what lets the
// campaign layer checkpoint completed cells and resume byte-identically.
//
// When sink.Tracer is set every trial carries a TrialTrace on
// (PID 0, trial index), and when sink.Metrics is set the engine records
// per-trial wall durations (engine_trial_seconds) and a trial counter
// (engine_trials_total). A nil or empty sink is the exact disabled path
// — instrumentation reads only the host wall clock, never a rng stream
// or the simulated clock, so samples are byte-identical with the sink
// on or off (determinism clause 9).
func RunTrials(ctx context.Context, n, workers int, seed uint64, sink *obs.Sink, fn func(t *Trial) Sample) ([]Sample, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Observability hooks: series are resolved once per run, and the
	// nil-receiver no-ops of internal/obs make the disabled path a
	// pointer test. Wall-clock reads happen only when metrics are live.
	var tracer *obs.Tracer
	var trialSec *obs.Histogram
	var trialsTotal *obs.Counter
	if sink != nil {
		tracer = sink.Tracer
		if sink.Metrics != nil {
			trialSec = sink.Metrics.Histogram("engine_trial_seconds", nil)
			trialsTotal = sink.Metrics.Counter("engine_trials_total")
		}
	}
	mkTrial := func(i int, pool *hostPool) *Trial {
		t := &Trial{Index: i, Seed: xrand.Stream(seed, uint64(i)), pool: pool}
		if tracer != nil {
			t.Trace = &obs.TrialTrace{Tracer: tracer, TID: i}
		}
		t.Phases = obs.NewPhases(nil, t.Trace)
		return t
	}
	out := make([]Sample, n)
	var firstPanic atomic.Pointer[trialPanic]
	// record keeps the lowest-index panic observed, not whichever worker
	// recovered first, so the attribution a caller reports (e.g. the
	// sweep's failing grid cell) does not depend on scheduling order.
	record := func(tp *trialPanic) {
		for {
			cur := firstPanic.Load()
			if cur != nil && cur.index <= tp.index {
				return
			}
			if firstPanic.CompareAndSwap(cur, tp) {
				return
			}
		}
	}
	// runOne recovers a panicking fn so a worker goroutine always returns
	// to its trial loop; panics beyond the lowest-index one are side
	// effects of an already-failed run and are dropped.
	runOne := func(t *Trial) {
		defer func() {
			if r := recover(); r != nil {
				record(&trialPanic{index: t.Index, value: r, stack: debug.Stack()})
			}
		}()
		if trialSec != nil {
			t0 := time.Now()
			defer func() {
				trialSec.Observe(time.Since(t0).Seconds())
				trialsTotal.Inc()
			}()
		}
		out[t.Index] = fn(t)
	}
	// Cancellation is polled between trials only — never inside one — so
	// every trial that starts also finishes, and the samples of finished
	// trials are untouched by the interruption.
	var cancelled atomic.Bool
	interrupted := func() bool {
		if cancelled.Load() {
			return true
		}
		if ctx.Err() != nil {
			cancelled.Store(true)
			return true
		}
		return false
	}
	if workers == 1 {
		pool := &hostPool{}
		for i := 0; i < n; i++ {
			if firstPanic.Load() != nil || interrupted() {
				break
			}
			runOne(mkTrial(i, pool))
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pool := &hostPool{}
				for {
					i := int(next.Add(1)) - 1
					if i >= n || firstPanic.Load() != nil || interrupted() {
						return
					}
					runOne(mkTrial(i, pool))
				}
			}()
		}
		wg.Wait()
	}
	if tp := firstPanic.Load(); tp != nil {
		return nil, tp
	}
	if cancelled.Load() {
		return nil, context.Cause(ctx)
	}
	return out, nil
}

// run is how the paper runners reach the engine: n trials of fn on
// o.Workers workers, seeded by SubSeed(o.Seed, labels...). A trial
// panic is re-raised on the calling goroutine after the pool has
// drained, never from a worker; it panics with the typed value (its
// Error text names the trial and carries its stack) so a recover()
// above can still inspect index and cause.
func (o Options) run(n int, fn func(t *Trial) Sample, labels ...string) []Sample {
	out, err := RunTrials(context.Background(), n, o.Workers, SubSeed(o.Seed, labels...), nil, fn)
	if err != nil {
		panic(err)
	}
	return out
}

// trialPanic records the first trial panic observed by a run, with the
// trial goroutine's stack captured at recover time (the re-raise on the
// caller's goroutine would otherwise lose the faulting site).
type trialPanic struct {
	index int
	value any
	stack []byte
}

func (p *trialPanic) Error() string {
	return fmt.Sprintf("experiments: trial %d panicked: %v\n%s", p.index, p.value, p.stack)
}

// TrialIndex returns the index of the trial that panicked; callers that
// map flat indices onto richer coordinates (the sweep's grid cells) use
// it to name the failing unit of work.
func (p *trialPanic) TrialIndex() int { return p.index }

// SubSeed derives an independent base seed for one labelled sub-run of an
// experiment (e.g. one scenario of table6), so that separate RunTrials
// calls within a report never share trial seeds.
func SubSeed(seed uint64, labels ...string) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * 1099511628211
		}
		h = (h ^ '/') * 1099511628211
	}
	return xrand.Stream(seed, h)
}

// Aggregation helpers shared by the runners.

// successRate returns the fraction of samples with OK set.
func successRate(samples []Sample) float64 {
	var c stats.Counter
	for _, s := range samples {
		c.Record(s.OK)
	}
	return c.Rate()
}

// sampleValues returns every sample's primary scalar.
func sampleValues(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Value
	}
	return out
}

// okValues returns the primary scalars of successful samples only.
func okValues(samples []Sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.OK {
			out = append(out, s.Value)
		}
	}
	return out
}

// concatSeries concatenates the k-th series of every sample, in trial
// order.
func concatSeries(samples []Sample, k int) []float64 {
	var out []float64
	for _, s := range samples {
		if k < len(s.Series) {
			out = append(out, s.Series[k]...)
		}
	}
	return out
}
