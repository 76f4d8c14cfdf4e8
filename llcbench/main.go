// Command llcbench is the repository benchmark: it runs one of three
// fixed-work workloads against the simulator's public packages, checks
// every output against digests kept beside it (expected.json), and
// prints one JSON result line. Untraced runs (--trace 0) report the
// end-to-end metrics; traced runs (--trace 1) time each call the
// benchmark makes into a layer and report the per-layer metrics.
//
// Run it from the repository root through its wrapper, which builds the
// binary inside the checkout:
//
//	bash llcbench/run.sh --workload keyrecovery --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metric map and
// the measurement caveats of the machine the bounds were set on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// expected is the digest file; workDir holds the run's checkpoint
	// logs and daemon data (created fresh, removed at exit).
	expected string
	workDir  string
	// update rewrites the workload's digests in expected from this run's
	// outputs instead of checking them (for intentional behaviour
	// changes; never used for measurement).
	update bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "llcbench:", err)
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llcbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("llcbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name: keyrecovery, grid or service")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: orders the fixed op list")
	fs.IntVar(&opt.seconds, "seconds", 30, "nominal run length; sizes the fixed op list")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opt.expected, "expected", filepath.Join("llcbench", "expected.json"), "expected output digests")
	fs.StringVar(&opt.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for logs and daemon data")
	fs.BoolVar(&opt.update, "update-expected", false, "rewrite this workload's digests from this run instead of checking them")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown --workload %q (want keyrecovery, grid or service)", opt.workload)
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("--seconds must be >= 1, got %d", opt.seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	return opt, nil
}

// run executes one workload end to end and assembles the result.
func run(opt options) (*result, error) {
	w := workloads[opt.workload]
	exp, err := loadExpected(opt.expected)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	dir, err := os.MkdirTemp(opt.workDir, opt.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(dir)

	b := &bench{
		opt:   opt,
		dir:   dir,
		want:  exp.Workloads[opt.workload],
		got:   map[string]string{},
		layer: map[string]float64{},
		ops:   opList(opt.seed, opCount(opt.seconds, w.nominalOpS, w.corpus)),
		t0:    time.Now(),
	}
	if b.want == nil && !opt.update {
		return nil, fmt.Errorf("%s has no digests for workload %s", opt.expected, opt.workload)
	}
	if err := w.run(b); err != nil {
		return nil, err
	}
	if opt.update {
		if err := saveDigests(opt.expected, opt.workload, b.got); err != nil {
			return nil, err
		}
	}
	for _, msg := range b.failures {
		fmt.Fprintln(os.Stderr, "llcbench: FAILED:", msg)
	}

	norm := b.normalizer()
	diag := map[string]any{
		"workload":       opt.workload,
		"seed":           opt.seed,
		"ops":            len(b.ops),
		"machine":        fingerprint(),
		"machine.ref_ms": median(b.refMS()),
		"ref_samples":    len(b.ref),
		"host.setup_s":   median(b.setupS),
		"host.op_s_p50":  median(b.opS),
		"host.ops_per_s": float64(len(b.loopS)) / sum(b.loopS),
		"op_s":           b.opS,
		"op_ref_s":       norm.scaleSpans(b.opS, b.opSpan),
	}
	if line, err := json.Marshal(diag); err == nil {
		fmt.Println(string(line))
	}

	res := &result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if opt.trace {
		b.layer["machine.ref_ms"] = median(b.refMS())
		for _, m := range perLayerMetrics {
			res.Metrics[m.Name] = metric{Value: b.layer[m.Name], Unit: m.Unit}
		}
		return res, nil
	}
	e2e := map[string]float64{
		"setup_s":       median(norm.scaleSpans(b.setupS, b.setupSpan)),
		"op_s_p50":      median(norm.scaleSpans(b.opS, b.opSpan)),
		"ops_per_s":     float64(len(b.loopS)) / sum(norm.scaleSpans(b.loopS, b.opSpan)),
		"peak_rss_mb":   peakRSSMB(),
		"ok_frac":       float64(b.attempted-b.failed) / float64(max(1, b.attempted)),
		"trial_ok_frac": float64(b.trialsOK) / float64(max(1, b.trials)),
		"sim_s_p50":     median(b.simS),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.Name] = metric{Value: e2e[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// workload is one fixed op list and the code that runs it.
type workload struct {
	// nominalOpS is the host time of one op on the machine the bounds
	// were set on; with --seconds it fixes the op count (never a clock).
	nominalOpS float64
	// corpus is the number of op seeds expected.json holds digests for,
	// and so the most ops one run can execute.
	corpus int
	run    func(b *bench) error
}

var workloads = map[string]workload{
	"keyrecovery": {nominalOpS: 6, corpus: 12, run: runKeyRecovery},
	"grid":        {nominalOpS: 5, corpus: 16, run: runGrid},
	"service":     {nominalOpS: 0.01, corpus: 3000, run: runService},
}

// bench accumulates one run's measurements.
type bench struct {
	opt options
	dir string
	// ops are the corpus seeds (1-based) in this run's order.
	ops []uint64

	setupS    []float64 // host seconds of each set-up repetition
	setupSpan []span    // when each set-up repetition ran
	opS       []float64 // host seconds of each op, in run order
	opSpan    []span    // when each op ran
	// loopS is each op's host seconds plus, on service, the read path
	// that follows it: the op loop's time without calibration or checks.
	loopS []float64
	t0    time.Time   // run start; sample and span times count from it
	ref   []refSample // reference-loop samples

	attempted, failed int
	failures          []string

	// Simulated outcomes: trials run, trials that succeeded, and the
	// simulated seconds of successful trials.
	trials, trialsOK int
	simS             []float64

	want, got map[string]string // output digests by key
	layer     map[string]float64
}

// addCells folds a sweep result's simulated outcomes: trials, successes
// and, for cells measured in cycles, the median simulated seconds.
func (b *bench) addCells(cells []sweep.CellResult) {
	for _, c := range cells {
		b.trials += c.Trials
		b.trialsOK += int(c.SuccessRate*float64(c.Trials) + 0.5)
		if c.Unit == "cycles" && c.SuccessRate > 0 {
			b.simS = append(b.simS, c.Median/clock.GHz2)
		}
	}
}

// timeOp runs one op, recovering a panic into an error, records its
// host duration and when it ran, and returns the duration. The op is
// counted as attempted; an error fails it.
func (b *bench) timeOp(name string, op func() error) (time.Duration, bool) {
	b.attempted++
	t0 := time.Now()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		return op()
	}()
	d := time.Since(t0)
	b.opS = append(b.opS, d.Seconds())
	b.loopS = append(b.loopS, d.Seconds())
	b.opSpan = append(b.opSpan, span{b.since(t0), b.since(t0.Add(d))})
	if err != nil {
		b.fail(fmt.Sprintf("%s: %v", name, err))
		return d, false
	}
	return d, true
}

// fail counts the current op as failed.
func (b *bench) fail(msg string) {
	b.failed++
	b.failures = append(b.failures, msg)
}

// check compares an output digest with the expected one. On a mismatch
// it returns false and the caller fails the op; in update mode it
// records the digest instead.
func (b *bench) check(key, digest string) bool {
	if b.opt.update {
		b.got[key] = digest
		return true
	}
	if want, ok := b.want[key]; ok && want == digest {
		return true
	}
	return false
}

// checkOp fails the op when any of its digests mismatch; it returns
// whether all matched.
func (b *bench) checkOp(name string, digests map[string]string) bool {
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !b.check(k, digests[k]) {
			b.fail(fmt.Sprintf("%s: digest %s = %s, want %s", name, k, digests[k], b.want[k]))
			return false
		}
	}
	return true
}

// repeatSetup runs a workload's set-up sequence setupReps times and
// records each duration. step learns whether it is the last repetition,
// whose result the workload keeps for its ops.
func (b *bench) repeatSetup(step func(last bool) error) error {
	for i := range setupReps {
		// Each repetition starts on a collected heap, so a collection
		// left over from the last one does not land in its time, and
		// after a calibration burst, which prices the machine's speed
		// next to it.
		runtime.GC()
		b.calibrate()
		t0 := time.Now()
		if err := step(i == setupReps-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		b.setupSpan = append(b.setupSpan, span{b.since(t0), b.since(time.Now())})
	}
	b.calibrate()
	return nil
}

// traceOverhead prices tracing: it runs one op untraced, then again
// with a live tracer and registry, and returns traced/untraced - 1.
func traceOverhead(op func(sink *obs.Sink) error) (float64, error) {
	t0 := time.Now()
	if err := op(nil); err != nil {
		return 0, fmt.Errorf("untraced reference op: %w", err)
	}
	untraced := time.Since(t0)
	t0 = time.Now()
	if err := op(&obs.Sink{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}); err != nil {
		return 0, fmt.Errorf("traced reference op: %w", err)
	}
	return time.Since(t0).Seconds()/untraced.Seconds() - 1, nil
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 40
