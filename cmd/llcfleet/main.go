// Command llcfleet coordinates one campaign across a fleet of
// llcserve daemons: it splits the sweep grid's Expand order into
// cell-range leases, hands them to workers over the daemon HTTP API,
// expires and reassigns leases from lagging or crashed workers,
// downloads each finished range's checkpoint log with verification and
// retry, and merges them centrally into an artifact byte-identical to
// an uninterrupted single-process run (determinism clause 9) —
// SIGKILLing a worker mid-lease changes nothing but the wall clock.
//
//	llcfleet -spec sweep.json -o merged.cells \
//	    -workers http://a:8077,http://b:8077,http://c:8077 \
//	    -lease-size 8 -lease-timeout 30s
//
// The output is a campaign checkpoint log, the same format llcsweep
// -checkpoint writes: feed it back to llcsweep (which skips every
// verified cell and emits the aggregate) or to llccells for per-trial
// export. Exit status: 0 on success, 1 on failure, 2 on usage errors.
//
// While the run is in flight the coordinator reports on stderr: a
// periodic one-line progress summary (cells done, lease-range states,
// cells/s, ETA; cadence set by -progress) plus per-event scheduling
// lines. -q silences the routine lines but NOT lease expiries or
// worker failures — those always print, since they are how an operator
// learns a worker died. -metrics-addr additionally serves the same
// telemetry as Prometheus text (fleet_leases_total by event,
// fleet_cells_completed_total, per-worker cells/s, ETA) at GET
// /metrics; none of it changes the merged artifact (determinism
// clause 10).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"

	// Register the end-to-end attack scenarios as sweepable cell
	// experiments, mirroring cmd/llcsweep.
	_ "repro/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("llcfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workersFlag  = fs.String("workers", "", "comma-separated llcserve base URLs (required)")
		specPath     = fs.String("spec", "", "sweep spec JSON file (required)")
		out          = fs.String("o", "", "merged checkpoint log to write (required; must not exist)")
		leaseSize    = fs.Int("lease-size", 0, "cells per lease (0 = about four leases per worker)")
		leaseTimeout = fs.Duration("lease-timeout", 30*time.Second, "reassign a lease after this long without progress")
		poll         = fs.Duration("poll", 250*time.Millisecond, "scheduling loop tick")
		workDir      = fs.String("workdir", "", "directory for downloaded range logs (default: a temp dir, removed on success)")
		quiet        = fs.Bool("q", false, "suppress scheduling-event log lines (lease expiries and worker failures still print)")
		metricsAddr  = fs.String("metrics-addr", "", "serve Prometheus-text coordinator metrics on this address at GET /metrics")
		progress     = fs.Duration("progress", 10*time.Second, "period for the one-line progress summary on stderr (0 = default 10s)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workersFlag == "" || *specPath == "" || *out == "" {
		fmt.Fprintln(stderr, "usage: llcfleet -workers URL[,URL...] -spec FILE -o FILE [-lease-size N] [-lease-timeout D] [-poll D] [-workdir DIR] [-q]")
		return 2
	}
	var workers []string
	for _, w := range strings.Split(*workersFlag, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, strings.TrimRight(w, "/"))
		}
	}
	if len(workers) == 0 {
		fmt.Fprintln(stderr, "llcfleet: -workers lists no URLs")
		return 2
	}

	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "llcfleet: %v\n", err)
		return 1
	}
	var spec sweep.Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		fmt.Fprintf(stderr, "llcfleet: decoding %s: %v\n", *specPath, err)
		return 1
	}

	logf := func(format string, fargs ...any) {
		fmt.Fprintf(stderr, format+"\n", fargs...)
	}
	// -q silences routine scheduling chatter and the progress line, but
	// never the error channel: lease expiries and worker failures are how
	// an operator learns a box died, so Errorf always reaches stderr.
	errf := logf
	progf := logf
	if *quiet {
		logf = nil
		progf = nil
	}

	// -metrics-addr exports the coordinator's counters and gauges while
	// the run is in flight; reading them never changes the merged
	// artifact (determinism clause 10).
	metrics := obs.NewRegistry()
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "llcfleet: %v\n", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			metrics.WritePrometheus(w)
		})
		ms := serve.NewHTTPServer(mux)
		defer ms.Close()
		go ms.Serve(ln)
		fmt.Fprintf(stderr, "llcfleet: metrics on http://%s/metrics\n", ln.Addr())
	}

	st, err := fleet.Run(ctx, spec, *out, fleet.Options{
		Workers:       workers,
		LeaseSize:     *leaseSize,
		LeaseTimeout:  *leaseTimeout,
		Poll:          *poll,
		WorkDir:       *workDir,
		Logf:          logf,
		Errorf:        errf,
		Progressf:     progf,
		ProgressEvery: *progress,
		Metrics:       metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "llcfleet: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr,
		"llcfleet: merged %d cells from %d sources into %s (%d leases, %d grants, %d renewed, %d expired, %d superseded, %d duplicate completions, %d deduped records)\n",
		st.Merge.Records, st.Merge.Sources, *out, st.Ranges, st.Grants, st.Renewed, st.Expired, st.Superseded, st.Duplicates, st.Merge.Deduped)
	return 0
}
