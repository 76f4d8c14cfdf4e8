// Command llcsweep runs a configuration sweep: a declarative grid of
// replacement policy x SF associativity x slice count x noise rate x
// tenant workload model x LLC defense x cell experiment, expanded by
// internal/sweep and executed on the
// parallel trial engine. The aggregated artifact (JSON by default, CSV
// with -csv) goes to stdout (or -o) and is byte-identical for every
// -parallel value and across runs on the same architecture (float
// summaries may differ by a last ulp between CPU architectures with
// different fused-multiply-add behaviour), so committed artifacts diff
// cleanly across changes.
//
// The grid comes either from comma-separated flags or from a JSON spec
// file (-spec), which holds exactly the sweep.Spec structure:
//
//	{
//	  "experiments": ["evset/bins", "probe/detect"],
//	  "policies": ["LRU", "SRRIP", "QLRU"],
//	  "sf_assocs": [8, 6],
//	  "slices": [2, 4],
//	  "noise_rates": [0.29, 11.5],
//	  "tenant_models": ["poisson", "burst", "stream"],
//	  "defenses": ["none", "partition:ways=4"],
//	  "trials": 10,
//	  "seed": 1
//	}
//
// Flags override spec-file fields; unset axes take defaults.
//
// Every grid runs as a campaign (internal/campaign): each finished cell
// prints a progress line on stderr, and with -checkpoint FILE it is also
// appended to FILE so an interrupted grid resumes with -resume.
//
// One grid can also span several PROCESSES or machines: `-shard i/N
// -checkpoint shard_i.cells` runs the i-th round-robin slice of the
// grid into its own checkpoint log, `-merge a.cells,b.cells,...
// -checkpoint merged.cells` reassembles the shard logs into one log
// byte-identical to a sequential single-process run's, and a final
// `-checkpoint merged.cells -resume` (or cmd/llccells) renders the
// aggregate artifact — byte-identical to running the grid in one
// process.
//
// Observability: -trace FILE writes a Chrome trace_event JSON file
// (one trace process per grid cell, one thread per trial, phase spans
// on the simulated-cycle timeline), and -metrics prints the run's
// telemetry — per-trial and per-cell duration histograms, cell
// completed/resumed counters, checkpoint append bytes — as Prometheus
// text on stderr. Neither changes a single artifact byte (determinism
// clause 9).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sweep"
	"repro/internal/tenant"

	// Register the end-to-end attack scenarios as sweepable cell
	// experiments ("scenario/<id>" ids in -list).
	_ "repro/internal/scenario"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: the grid stops on the next
	// trial boundary, the temp artifact is removed, checkpointed cells
	// stay durable, and the process exits non-zero — no .tmp-* litter,
	// no truncated artifact. A second signal kills the process outright
	// (AfterFunc restores default signal disposition on the first one).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llcsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specFile  = fs.String("spec", "", "JSON sweep spec file (flags override its fields)")
		exps      = fs.String("experiments", "", "comma-separated cell experiment ids (see -list)")
		policies  = fs.String("policies", "", "comma-separated replacement policies (LRU,Tree-PLRU,SRRIP,QLRU,Random)")
		assocs    = fs.String("assocs", "", "comma-separated SF associativities (LLC follows one way below)")
		slices    = fs.String("slices", "", "comma-separated LLC/SF slice counts")
		noise     = fs.String("noise", "", "comma-separated noise rates in accesses/ms/set (0.29=local, 11.5=Cloud Run)")
		tmodels   = fs.String("tenant-models", "", "comma-separated background tenant models (poisson,burst,stream,hotset,churn; see -list)")
		defs      = fs.String("defenses", "", "comma-separated LLC defense specs (none,partition:ways=4,randomize,scatter,quiesce; see -list)")
		trials    = fs.Int("trials", 0, "trials per cell (0 = default 10)")
		seed      = fs.Uint64("seed", 1, "deterministic seed (an explicit 0 is honoured)")
		parallel  = fs.Int("parallel", 0, "trial workers (0 = GOMAXPROCS, 1 = sequential); never changes the artifact")
		asCSV     = fs.Bool("csv", false, "emit CSV instead of JSON")
		outFile   = fs.String("o", "", "write the artifact to a file instead of stdout")
		ckptFile  = fs.String("checkpoint", "", "binary cell-result log: append each completed cell so an interrupted grid can resume")
		resume    = fs.Bool("resume", false, "with -checkpoint: reuse an existing log, skipping checksum-verified cells")
		shard     = fs.String("shard", "", "run one deterministic grid slice i/N (round-robin by cell index) into -checkpoint; N processes with N logs cover the grid")
		merge     = fs.String("merge", "", "comma-separated shard checkpoint logs to merge into -checkpoint (byte-identical to a sequential single-process log)")
		list      = fs.Bool("list", false, "list cell experiment ids")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep run to this file")
		memProf   = fs.String("memprofile", "", "write a post-run pprof heap profile to this file")
		blockProf = fs.String("blockprofile", "", "write a post-run pprof goroutine-blocking profile to this file")
		mutexProf = fs.String("mutexprofile", "", "write a post-run pprof mutex-contention profile to this file")
		traceFile = fs.String("trace", "", "write a Chrome trace_event JSON file of the run (Perfetto-viewable); never changes the artifact")
		metrics   = fs.Bool("metrics", false, "print run telemetry (trial/cell histograms, cell counters, append bytes) as Prometheus text on stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, l := range experiments.CellList() {
			fmt.Fprintln(stdout, l)
		}
		fmt.Fprintln(stdout, "\ntenant models (-tenant-models axis):")
		for _, l := range tenant.ModelList() {
			fmt.Fprintln(stdout, l)
		}
		fmt.Fprintln(stdout, "\ndefense models (-defenses axis; \"none\" = undefended):")
		for _, l := range defense.ModelList() {
			fmt.Fprintln(stdout, l)
		}
		return 0
	}

	var spec sweep.Spec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintf(stderr, "llcsweep: %v\n", err)
			return 2
		}
		if spec, err = sweep.DecodeSpec(bytes.NewReader(data)); err != nil {
			fmt.Fprintf(stderr, "llcsweep: spec %s: %v\n", *specFile, err)
			return 2
		}
	}
	var err error
	if spec.Experiments, err = mergeStrings(spec.Experiments, *exps); err == nil {
		spec.Policies, err = mergeStrings(spec.Policies, *policies)
	}
	if err == nil {
		spec.SFAssocs, err = mergeInts(spec.SFAssocs, *assocs)
	}
	if err == nil {
		spec.Slices, err = mergeInts(spec.Slices, *slices)
	}
	if err == nil {
		spec.NoiseRates, err = mergeFloats(spec.NoiseRates, *noise)
	}
	if err == nil {
		spec.TenantModels, err = mergeStrings(spec.TenantModels, *tmodels)
	}
	if err == nil {
		spec.Defenses, err = mergeStrings(spec.Defenses, *defs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "llcsweep: %v\n", err)
		return 2
	}
	if *trials != 0 {
		// Pass negative values through so sweep.Validate rejects them
		// loudly instead of silently running the default trial count.
		spec.Trials = *trials
	}
	// Seed precedence: an explicitly passed -seed (0 included — it is a
	// legitimate seed) wins over a spec file; without a spec file the
	// flag's default of 1 applies; a spec file's seed is always literal,
	// so an artifact's embedded spec reproduces it exactly.
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if seedSet || *specFile == "" {
		spec.Seed = *seed
	}

	// Validate before touching the -o path: a bad spec must not truncate
	// an existing artifact. (Run re-normalizes/validates; both are
	// idempotent and cheap.)
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		// Usage error, like a bad flag: exit 2 (llcrepro's convention),
		// reserving 1 for failures of the sweep itself.
		fmt.Fprintf(stderr, "llcsweep: %v\n", err)
		return 2
	}
	if *resume && *ckptFile == "" {
		fmt.Fprintln(stderr, "llcsweep: -resume requires -checkpoint")
		return 2
	}
	var shardIdx, shardCnt int
	var owns func(int) bool // nil: the whole grid
	if *shard != "" {
		shardIdx, shardCnt, err = parseShard(*shard)
		if err != nil {
			fmt.Fprintf(stderr, "llcsweep: %v\n", err)
			return 2
		}
		if *merge != "" {
			fmt.Fprintln(stderr, "llcsweep: -shard and -merge are mutually exclusive")
			return 2
		}
		if *ckptFile == "" {
			fmt.Fprintln(stderr, "llcsweep: -shard requires -checkpoint (the shard's log is its only output)")
			return 2
		}
		if *outFile != "" || *asCSV {
			fmt.Fprintln(stderr, "llcsweep: a shard run produces no aggregate artifact; drop -o/-csv and merge the shard logs instead")
			return 2
		}
		// Round-robin keeps every shard a cross-section of the grid:
		// Expand puts the experiment axis outermost, so contiguous
		// shards would each get one experiment's cells.
		owns = func(ci int) bool { return ci%shardCnt == shardIdx }
	}
	if *merge != "" {
		// Merge mode: no cells run. The grid flags/spec name the campaign
		// the shard logs belong to; -checkpoint is the merged destination.
		if *ckptFile == "" {
			fmt.Fprintln(stderr, "llcsweep: -merge requires -checkpoint as the destination log")
			return 2
		}
		if *resume {
			fmt.Fprintln(stderr, "llcsweep: -merge and -resume are mutually exclusive (resume against the merged log afterwards)")
			return 2
		}
		srcs, err := mergeStrings(nil, *merge)
		if err != nil {
			fmt.Fprintf(stderr, "llcsweep: %v\n", err)
			return 2
		}
		st, err := campaign.Merge(spec, *ckptFile, srcs)
		if err != nil {
			fmt.Fprintf(stderr, "llcsweep: %v\n", err)
			return 1
		}
		missing := len(sweep.Expand(spec)) - st.Records
		fmt.Fprintf(stderr, "llcsweep: merged %d log(s) into %s: %d cell record(s), %d duplicate(s) deduped, %d grid cell(s) still missing\n",
			st.Sources, *ckptFile, st.Records, st.Deduped, missing)
		return 0
	}

	// Checkpoint log: open-or-create before the temp artifact so a bad
	// checkpoint (wrong spec, unreadable path) fails before any compute.
	// The log is bound to the spec's fingerprint: resuming under a
	// different grid/seed/trial count is rejected, never silently mixed.
	var ckpt *artifact.Log
	if *ckptFile != "" {
		fi, statErr := os.Stat(*ckptFile)
		switch {
		case statErr == nil && !*resume:
			fmt.Fprintf(stderr, "llcsweep: checkpoint %s already exists; pass -resume to continue it\n", *ckptFile)
			return 2
		case statErr == nil && fi.Size() < artifact.HeaderSize:
			// A crash between checkpoint creation and the header sync
			// leaves a file too short to hold any verified record;
			// OpenOrCreate recreates it rather than wedge every resume.
			fmt.Fprintf(stderr, "llcsweep: resume: checkpoint %s holds no verified records (torn header); recreating\n", *ckptFile)
		case statErr != nil && *resume:
			// Tolerated so kill/resume loops can use one command line;
			// noted so a typo'd path does not pass silently.
			fmt.Fprintf(stderr, "llcsweep: resume: checkpoint %s not found, starting fresh\n", *ckptFile)
		}
		l, err := artifact.OpenOrCreate(*ckptFile, campaign.Fingerprint(spec))
		if err != nil {
			fmt.Fprintf(stderr, "llcsweep: %v\n", err)
			return 2
		}
		ckpt = l
		defer ckpt.Close()
		if l.DroppedTail > 0 || l.DroppedDuplicates > 0 {
			fmt.Fprintf(stderr, "llcsweep: resume: dropped %d unverified tail record(s) and %d duplicated cell(s); those cells re-run\n",
				l.DroppedTail, l.DroppedDuplicates)
		}
	}
	// With -o, stage the artifact beside its destination and install it
	// only on full success: staging up front fails fast on an unwritable
	// path (before hours of grid compute), and a sweep or write error
	// leaves any previous artifact at that path untouched.
	out := stdout
	var staged *artifact.Staged
	if *outFile != "" {
		st, err := artifact.Stage(*outFile)
		if err != nil {
			fmt.Fprintf(stderr, "llcsweep: %v\n", err)
			return 1
		}
		defer st.Abort()
		staged, out = st, st
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "llcsweep: %v\n", err)
		return 1
	}

	// Profiles bracket only the sweep run — spec plumbing and artifact
	// writing stay outside — and go to their own files, so profiling
	// cannot perturb the byte-identical artifact.
	stopProf, err := profiling.StartWith(profiling.Config{
		CPUFile: *cpuProf, MemFile: *memProf,
		BlockFile: *blockProf, MutexFile: *mutexProf,
	})
	if err != nil {
		return fail(err)
	}
	// The sink stays nil unless -trace/-metrics asked for telemetry —
	// the exact disabled path; a telemetered run's artifact is
	// byte-identical anyway (determinism clause 9).
	var sink *obs.Sink
	if *traceFile != "" || *metrics {
		sink = &obs.Sink{}
		if *traceFile != "" {
			sink.Tracer = obs.NewTracer()
		}
		if *metrics {
			sink.Metrics = obs.NewRegistry()
		}
	}
	// emitObs installs the trace file and writes the stderr metrics
	// summary after the run; it must run on the shard early-exit path
	// too.
	emitObs := func() error {
		if sink == nil {
			return nil
		}
		if sink.Tracer != nil {
			if err := artifact.WriteFile(*traceFile, sink.Tracer.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "llcsweep: trace: %d spans -> %s\n", sink.Tracer.Len(), *traceFile)
		}
		if sink.Metrics != nil {
			fmt.Fprintln(stderr, "llcsweep: metrics:")
			if err := sink.Metrics.WritePrometheus(stderr); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	// Every grid runs as a campaign: with -checkpoint each cell is
	// checkpointed as it completes, without it Log is nil and nothing
	// persists. Progress lines go to stderr; the artifact is
	// byte-identical either way.
	res, stats, err := campaign.Run(ctx, spec, campaign.Options{
		Workers: *parallel,
		Log:     ckpt,
		Owns:    owns,
		Obs:     sink,
		OnCell: func(ev campaign.Event) {
			if ev.Skipped {
				return // summarised once below; grids can have many cells
			}
			fmt.Fprintf(stderr, "llcsweep: cell %d/%d done %s\n", ev.Done, ev.Total, ev.Coords)
		},
	})
	if stats != nil && stats.Skipped > 0 {
		fmt.Fprintf(stderr, "llcsweep: resume: skipped %d verified cell(s), ran %d of %d\n",
			stats.Skipped, stats.Ran, stats.Cells)
	}
	if err == nil && shardCnt > 0 {
		// A shard's output is its checkpoint log; there is nothing to
		// aggregate until the shard logs are merged.
		if perr := stopProf(); perr != nil {
			return fail(perr)
		}
		if oerr := emitObs(); oerr != nil {
			return fail(oerr)
		}
		fmt.Fprintf(stderr, "llcsweep: shard %d/%d: ran %d and skipped %d of its %d cell(s), wall time %s\n",
			shardIdx, shardCnt, stats.Ran, stats.Skipped, stats.Cells, time.Since(start).Round(time.Millisecond))
		return 0
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	if oerr := emitObs(); oerr != nil {
		return fail(oerr)
	}
	// Wall time goes to stderr so the artifact stays byte-identical
	// across runs and worker counts (the determinism contract).
	fmt.Fprintf(stderr, "llcsweep: %d cells x %d trials, wall time %s\n",
		len(res.Cells), res.Spec.Trials, time.Since(start).Round(time.Millisecond))
	if *asCSV {
		err = res.WriteCSV(out)
	} else {
		err = res.WriteJSON(out)
	}
	if err == nil && staged != nil {
		err = staged.Commit()
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// parseShard parses a -shard value "i/N" into (i, N), requiring
// 0 <= i < N.
func parseShard(s string) (int, int, error) {
	is, ns, ok := strings.Cut(s, "/")
	if ok {
		i, err1 := strconv.Atoi(strings.TrimSpace(is))
		n, err2 := strconv.Atoi(strings.TrimSpace(ns))
		if err1 == nil && err2 == nil && n >= 1 && i >= 0 && i < n {
			return i, n, nil
		}
	}
	return 0, 0, fmt.Errorf("bad -shard %q: want i/N with 0 <= i < N", s)
}

// mergeStrings overrides base with the comma-separated flag value when
// the flag was set.
func mergeStrings(base []string, flagVal string) ([]string, error) {
	if flagVal == "" {
		return base, nil
	}
	var out []string
	for _, p := range strings.Split(flagVal, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("empty element in list %q", flagVal)
		}
		out = append(out, p)
	}
	return out, nil
}

// mergeInts is mergeStrings for integer axes.
func mergeInts(base []int, flagVal string) ([]int, error) {
	parts, err := mergeStrings(nil, flagVal)
	if err != nil || parts == nil {
		return base, err
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", p, flagVal)
		}
		out[i] = v
	}
	return out, nil
}

// mergeFloats is mergeStrings for float axes.
func mergeFloats(base []float64, flagVal string) ([]float64, error) {
	parts, err := mergeStrings(nil, flagVal)
	if err != nil || parts == nil {
		return base, err
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in %q", p, flagVal)
		}
		out[i] = v
	}
	return out, nil
}
