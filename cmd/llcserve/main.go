// Command llcserve is the long-running campaign daemon: it accepts
// sweep specs over HTTP/JSON, runs them as resumable checkpointed
// campaigns (internal/campaign), and serves progress, per-cell
// completion events, final artifacts and raw checkpoint logs. Every
// job is durable — the checkpoint log under -data survives crashes and
// restarts, and resubmitting the same spec after either resumes from
// the verified cells instead of recomputing them.
//
//	llcserve -addr 127.0.0.1:8077 -data /var/lib/llcserve
//
// Endpoints (all under /api/v1):
//
//	POST /api/v1/jobs               submit a sweep.Spec (JSON body; no query string)
//	GET  /api/v1/jobs               list jobs in submission order
//	GET  /api/v1/jobs/{id}          one job's status and progress
//	GET  /api/v1/jobs/{id}/result   final sweep artifact JSON (done jobs only)
//	GET  /api/v1/jobs/{id}/artifact the job's raw .cells checkpoint log (done jobs only)
//	GET  /api/v1/jobs/{id}/events   ndjson stream of per-cell completions: backlog, then live
//	POST /api/v1/jobs/{id}/cancel   stop a queued or running job at the next trial boundary
//	GET  /healthz                   liveness probe: JSON {status, uptime_s, jobs_running, queue_depth}
//	GET  /metrics                   Prometheus text: queue depth, jobs by state, cells/s, GC reaps, event-stream clients
//
// The job ID is the spec's campaign fingerprint (16 hex digits), so a
// job IS its spec: submitting a byte-different spec makes a new job,
// resubmitting an identical one attaches to the existing job in any
// state — including interrupted jobs from a previous process, which
// re-enqueue and resume. Every job runs the whole grid; to split one
// grid over several processes, run llcsweep -shard and -merge. Up to
// -jobs campaigns run concurrently in submission order, splitting the
// -parallel trial-worker budget evenly; neither knob changes any
// artifact byte (determinism clauses 4 and 8). The submit queue is
// unbounded — accepting a job is a map insert and a slice append, so
// submission never blocks on the runners. On SIGINT/SIGTERM the daemon
// drains: in-flight trials finish, the checkpoint log keeps every
// completed cell, and the job is marked interrupted for the next
// incarnation to resume.
//
// With -retain-age and/or -retain-count the daemon garbage-collects
// DONE jobs' spec/cells/result triples (oldest first, by completion
// time) once they are older than the age or beyond the count. Queued,
// running, failed, cancelled and interrupted jobs are never touched:
// retention only reaps campaigns whose artifact was served durable,
// and a reaped spec can always be resubmitted to recompute
// byte-identical results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"

	// Register the end-to-end attack scenarios as sweepable cell
	// experiments, mirroring cmd/llcsweep.
	_ "repro/internal/scenario"
)

func main() {
	fs := flag.NewFlagSet("llcserve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8077", "listen address")
		dataDir  = fs.String("data", "", "directory for specs, checkpoint logs and results (required)")
		parallel = fs.Int("parallel", 0, "total campaign trial workers across jobs (0 = GOMAXPROCS); never changes any artifact")
		jobs     = fs.Int("jobs", 1, "concurrent campaign jobs; the -parallel budget is split evenly between them")
		retAge   = fs.Duration("retain-age", 0, "garbage-collect done jobs older than this (0 = keep forever)")
		retCount = fs.Int("retain-count", 0, "keep at most this many done jobs, oldest reaped first (0 = keep all)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "usage: llcserve -data DIR [-addr HOST:PORT] [-parallel K] [-jobs K] [-retain-age D] [-retain-count N]")
		os.Exit(2)
	}
	if *jobs < 1 || *retAge < 0 || *retCount < 0 {
		fmt.Fprintln(os.Stderr, "llcserve: -jobs must be >= 1 and -retain-age/-retain-count must not be negative")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	srv, err := serve.New(*dataDir, serve.Options{
		Workers:     *parallel,
		Jobs:        *jobs,
		RetainAge:   *retAge,
		RetainCount: *retCount,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "llcserve: %v\n", err)
		os.Exit(1)
	}
	srv.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "llcserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "llcserve: listening on %s, data in %s\n", ln.Addr(), *dataDir)
	hs := serve.NewHTTPServer(srv.Handler())
	go func() {
		<-ctx.Done()
		// Drain: stop accepting, let in-flight responses finish briefly,
		// then fall through to srv.Wait() which interrupts the running
		// campaign (checkpointed cells stay durable).
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "llcserve: %v\n", err)
		os.Exit(1)
	}
	srv.Wait()
	fmt.Fprintln(os.Stderr, "llcserve: drained")
}
