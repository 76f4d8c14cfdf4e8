// Command llcattack runs end-to-end attack scenarios from the registry
// in internal/scenario: each trial executes one FULL pipeline (eviction
// sets -> PSD scan -> Parallel-Probing extraction -> optionally lattice
// key recovery, or a covert channel) on a pooled simulated host, and the
// report aggregates success rates (with Wilson 95% intervals), per-step
// cycle budgets, and latency distributions across trials.
//
//	llcattack -list                                  # scenario ids + tenant/defense models
//	llcattack -scenario e2e/keyrecovery -trials 8    # one report
//	llcattack -scenario e2e/extract -tenants "burst:rate=34.5,on_frac=0.1"
//	llcattack -scenario e2e/extract -defense partition:ways=4
//
// The report is JSON on stdout (or -o) and is byte-identical for every
// -parallel value on the architecture that runs it; wall-clock timing
// goes to stderr, never into the report (the determinism contract shared
// with cmd/llcrepro and cmd/llcsweep).
//
// -trace FILE additionally writes a Chrome trace_event JSON file
// (load it in Perfetto or chrome://tracing): one process per scenario,
// one thread per trial, one cat="phase" span per pipeline step on the
// SIMULATED-cycle timeline (per-trial phase spans sum exactly to the
// trial's cycle budget), with host wall time per phase in each span's
// args — which is how a phase that is cheap in simulated time but
// expensive on the host (e.g. the Norm-jitter wall) is located. Tracing
// never changes a report byte (determinism clause 9).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/tenant"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: the scenario stops on the
	// next trial boundary, the temp report is removed, and the process
	// exits non-zero — no .tmp-* litter, no truncated report. A second
	// signal kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code surfaced, so the golden
// and determinism tests can execute the CLI in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llcattack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id        = fs.String("scenario", "", "scenario id to run (see -list)")
		trials    = fs.Int("trials", 8, "independent end-to-end trials")
		seed      = fs.Uint64("seed", 1, "deterministic seed")
		parallel  = fs.Int("parallel", 0, "trial workers (0 = GOMAXPROCS, 1 = sequential); never changes the report")
		tenants   = fs.String("tenants", "", "background-tenant override: ';'-separated specs (\"burst:rate=34.5,on_frac=0.1\") or JSON (see -list)")
		def       = fs.String("defense", "", "LLC-defense override: one spec (\"partition:ways=4\") or \"none\" (see -list)")
		outFile   = fs.String("o", "", "write the report to a file instead of stdout")
		list      = fs.Bool("list", false, "list scenario ids, tenant models and defense models")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the scenario run to this file")
		memProf   = fs.String("memprofile", "", "write a post-run pprof heap profile to this file")
		blockProf = fs.String("blockprofile", "", "write a post-run pprof goroutine-blocking profile to this file")
		mutexProf = fs.String("mutexprofile", "", "write a post-run pprof mutex-contention profile to this file")
		traceFile = fs.String("trace", "", "write a Chrome trace_event JSON file of the run's phases (Perfetto-viewable); never changes the report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, l := range scenario.List() {
			fmt.Fprintln(stdout, l)
		}
		fmt.Fprintln(stdout, "\ntenant models (-tenants \"model:key=value,...\"):")
		for _, l := range tenant.ModelList() {
			fmt.Fprintln(stdout, l)
		}
		fmt.Fprintln(stdout, "\ndefense models (-defense \"model:key=value,...\"):")
		for _, l := range defense.ModelList() {
			fmt.Fprintln(stdout, l)
		}
		return 0
	}
	specs, err := tenant.ParseList(*tenants)
	if err != nil {
		fmt.Fprintf(stderr, "llcattack: %v\n", err)
		return 2
	}
	defSpec, err := defense.ParseOpt(*def)
	if err != nil {
		fmt.Fprintf(stderr, "llcattack: %v\n", err)
		return 2
	}
	if *id == "" {
		fmt.Fprintln(stderr, "usage: llcattack -scenario <id> [-trials N] [-seed S] [-parallel K] [-tenants SPEC] [-defense SPEC] | -list")
		return 2
	}
	if _, ok := scenario.Lookup(*id); !ok {
		fmt.Fprintf(stderr, "llcattack: unknown scenario %q; try -list\n", *id)
		return 2
	}
	if *trials < 1 {
		fmt.Fprintf(stderr, "llcattack: trials must be >= 1, got %d\n", *trials)
		return 2
	}

	// With -o, stage the report beside its destination and install it
	// only on full success, so a failed run never truncates a previous
	// report.
	out := stdout
	var staged *artifact.Staged
	if *outFile != "" {
		st, err := artifact.Stage(*outFile)
		if err != nil {
			fmt.Fprintf(stderr, "llcattack: %v\n", err)
			return 1
		}
		defer st.Abort()
		staged, out = st, st
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "llcattack: %v\n", err)
		return 1
	}

	// Profiles bracket only the scenario run — flag parsing and report
	// writing stay outside — and go to their own files, so profiling
	// cannot perturb the byte-identical report.
	stopProf, err := profiling.StartWith(profiling.Config{
		CPUFile: *cpuProf, MemFile: *memProf,
		BlockFile: *blockProf, MutexFile: *mutexProf,
	})
	if err != nil {
		return fail(err)
	}
	// The sink is nil unless -trace is set, which is the engine's exact
	// untraced path; a traced run's report is byte-identical anyway
	// (determinism clause 9, pinned by TestTraceByteIdentity).
	var sink *obs.Sink
	if *traceFile != "" {
		sink = &obs.Sink{Tracer: obs.NewTracer()}
	}
	start := time.Now()
	rep, err := scenario.RunWithObs(ctx, *id, specs, defSpec, *trials, *parallel, *seed, sink)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	if sink != nil {
		if terr := artifact.WriteFile(*traceFile, sink.Tracer.WriteJSON); terr != nil {
			return fail(terr)
		}
		fmt.Fprintf(stderr, "llcattack: trace: %d spans -> %s\n", sink.Tracer.Len(), *traceFile)
	}
	// Wall time goes to stderr so the report stays byte-identical across
	// runs and worker counts.
	fmt.Fprintf(stderr, "llcattack: %s x %d trials, %d/%d succeeded, wall time %s\n",
		*id, *trials, rep.Aggregate.Successes, *trials, time.Since(start).Round(time.Millisecond))
	err = rep.WriteJSON(out)
	if err == nil && staged != nil {
		err = staged.Commit()
	}
	if err != nil {
		return fail(err)
	}
	return 0
}
