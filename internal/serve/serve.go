// Package serve implements the campaign daemon behind cmd/llcserve:
// an HTTP/JSON job server that accepts sweep specs, runs them as
// resumable checkpointed campaigns (internal/campaign), and serves
// progress, per-cell completion events, final artifacts and raw
// checkpoint logs. Every job is durable — the checkpoint log under the
// data directory survives crashes and restarts, and resubmitting the
// same spec after either resumes from the verified cells instead of
// recomputing them.
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
//	GET  /healthz                   liveness probe (JSON: status, uptime_s, jobs_running, queue_depth)
//	GET  /metrics                   Prometheus text telemetry (queue depth, jobs by state, cells/s, ...)
//
// A job's ID is the spec's campaign fingerprint (16 hex digits), so a
// job IS its spec: submitting a byte-different spec makes a new job,
// resubmitting an identical one attaches to the existing job in any
// state — including interrupted jobs from a previous process, which
// re-enqueue and resume. Every job runs the whole grid and ends in a
// result artifact; a job is done exactly when that artifact exists.
//
// The package exists so the daemon can be embedded: cmd/llcserve wraps
// it in flags and signal handling, while tests and the llcbench service
// workload drive it in-process through httptest.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// jobState is the lifecycle: queued -> running -> one of the terminal
// states. interrupted (daemon shut down mid-run) and cancelled/failed
// jobs re-enqueue when their spec is submitted again; done jobs only
// serve their result.
type jobState string

const (
	stateQueued      jobState = "queued"
	stateRunning     jobState = "running"
	stateDone        jobState = "done"
	stateFailed      jobState = "failed"
	stateCancelled   jobState = "cancelled"
	stateInterrupted jobState = "interrupted"
)

// job is one submitted spec.
// Its mutable fields are guarded by the server mutex; cond broadcasts
// on every event append and state change, which is what the ndjson
// streams block on.
type job struct {
	ID    string     `json:"id"`
	State jobState   `json:"state"`
	Total int        `json:"total_cells"`
	Done  int        `json:"done_cells"`
	Skip  int        `json:"skipped_cells"`
	Error string     `json:"error,omitempty"`
	Spec  sweep.Spec `json:"spec"`

	seq       int // submission order for listing
	events    []campaign.Event
	gen       int // bumped when a rerun resets events, so streams replay
	doneAt    time.Time
	cancel    context.CancelFunc
	cancelled bool // cancel endpoint (vs daemon drain) hit while active
}

// Options configures a daemon instance.
type Options struct {
	// Workers is the total trial-worker budget shared by all concurrent
	// jobs (0 = GOMAXPROCS). It never changes any artifact byte.
	Workers int
	// Jobs is how many campaigns run concurrently (<= 0 means 1). Each
	// running job gets max(1, Workers/Jobs) trial workers.
	Jobs int
	// RetainAge garbage-collects done jobs finished longer ago than
	// this (0 = no age limit).
	RetainAge time.Duration
	// RetainCount keeps at most this many done jobs, reaping the oldest
	// first (0 = no count limit).
	RetainCount int
}

// Server is a campaign daemon instance: construct with New, attach
// Handler to an HTTP server, Start the runners, and Wait for them
// after cancelling the start context (drain).
type Server struct {
	dataDir     string
	workers     int // trial workers per running job
	jobSlots    int // concurrent job runners
	retainAge   time.Duration
	retainCount int
	bodyTimeout time.Duration // readBodyTimeout; tests shorten it

	mu    sync.Mutex
	cond  *sync.Cond
	jobs  map[string]*job
	next  int      // next submission sequence number
	queue []string // unbounded FIFO of queued job IDs; cond signals appends

	ctx     context.Context // Start's context; event streams terminate when it dies
	stopped chan struct{}   // closed when every runner has exited

	// metrics is the daemon's telemetry registry, served by GET /metrics
	// and fed by the campaign layer of every job it runs. Telemetry is
	// wall-clock only and never touches job artifacts (determinism
	// clause 9).
	metrics      *obs.Registry
	started      time.Time
	cellsDone    *obs.Counter // campaign_cells_total{state="computed"}
	gcReaped     *obs.Counter
	eventClients *obs.Gauge
}

// Metrics returns the daemon's telemetry registry (live; scrape with
// WritePrometheus or the /metrics endpoint).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// New loads the data directory's jobs: a spec with a result is done,
// and anything else is a campaign a previous incarnation never
// finished — exposed as interrupted so a resubmit resumes it.
func New(dataDir string, opts Options) (*Server, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	budget := opts.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	slots := max(1, opts.Jobs)
	s := &Server{
		dataDir:     dataDir,
		workers:     max(1, budget/slots),
		jobSlots:    slots,
		retainAge:   opts.RetainAge,
		retainCount: opts.RetainCount,
		bodyTimeout: readBodyTimeout,
		jobs:        make(map[string]*job),
		stopped:     make(chan struct{}),
		metrics:     obs.NewRegistry(),
		started:     time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.cellsDone = s.metrics.Counter("campaign_cells_total", "state", "computed")
	s.gcReaped = s.metrics.Counter("llcserve_gc_reaped_total")
	s.eventClients = s.metrics.Gauge("llcserve_event_clients")
	specs, err := filepath.Glob(filepath.Join(dataDir, "*.spec.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(specs)
	for _, p := range specs {
		id := strings.TrimSuffix(filepath.Base(p), ".spec.json")
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		spec, err := sweep.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", id, err)
		}
		spec.Normalize()
		if got := jobID(spec); got != id {
			return nil, fmt.Errorf("job %s: spec fingerprints as %s (foreign or edited spec file)", id, got)
		}
		j := &job{ID: id, Spec: spec, Total: len(sweep.Expand(spec)), State: stateInterrupted, seq: s.next}
		s.next++
		if fi, err := os.Stat(s.resultPath(id)); err == nil {
			j.State = stateDone
			j.Done = j.Total
			// The artifact's install time stands in for the completion
			// time, so retention ages reloaded jobs sensibly.
			j.doneAt = fi.ModTime()
		}
		s.jobs[id] = j
	}
	return s, nil
}

// jobID derives a job's identity: the spec's campaign fingerprint.
func jobID(spec sweep.Spec) string {
	return fmt.Sprintf("%016x", campaign.Fingerprint(spec))
}

func (s *Server) specPath(id string) string   { return filepath.Join(s.dataDir, id+".spec.json") }
func (s *Server) cellsPath(id string) string  { return filepath.Join(s.dataDir, id+".cells") }
func (s *Server) resultPath(id string) string { return filepath.Join(s.dataDir, id+".result.json") }

// Start launches the job-runner pool: jobSlots goroutines each pop the
// oldest queued ID and run it, so jobs still start in submission order
// even though up to jobSlots of them run concurrently. ctx is the
// daemon lifetime: when it cancels, running campaigns stop at the next
// trial boundary, the runners exit after marking their jobs
// interrupted, the retention ticker stops, and connected event streams
// terminate. Retention, when configured, sweeps at startup and then
// once a minute.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	s.ctx = ctx
	s.mu.Unlock()
	// Runners and event streams block on the cond (not the ctx), so
	// translate cancellation into a broadcast to wake them.
	stopWake := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	var wg sync.WaitGroup
	for range s.jobSlots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s.mu.Lock()
				for len(s.queue) == 0 && ctx.Err() == nil {
					s.cond.Wait()
				}
				if ctx.Err() != nil {
					s.mu.Unlock()
					return
				}
				id := s.queue[0]
				s.queue = s.queue[1:]
				s.mu.Unlock()
				s.runJob(ctx, id)
				s.gc()
			}
		}()
	}
	if s.retainAge > 0 || s.retainCount > 0 {
		// The retention ticker joins the drain WaitGroup like any runner:
		// Wait() must not return while it could still reap files, and a
		// drained daemon must leave no goroutine behind (pinned by the
		// drain goroutine-count test).
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.gc()
			t := time.NewTicker(time.Minute)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s.gc()
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		stopWake()
		close(s.stopped)
	}()
}

// Wait blocks until every runner and the retention ticker have exited
// (drain complete).
func (s *Server) Wait() { <-s.stopped }

// enqueue appends a job ID to the FIFO and wakes an idle runner. The
// caller must hold s.mu; the queue is a slice, so enqueueing never
// blocks no matter how many jobs are backed up (a bounded channel here
// once deadlocked the whole daemon at 1024 queued jobs, because the
// send happened under the same mutex the runner needs to make
// progress).
func (s *Server) enqueue(id string) {
	s.queue = append(s.queue, id)
	s.cond.Broadcast()
}

// gc applies the retention policy: done jobs beyond RetainCount or
// older than RetainAge lose their spec/cells/result triple and their
// jobs-map entry. Only stateDone jobs are candidates — queued, running,
// failed, cancelled and interrupted jobs keep their files, since those
// states still need the spec and checkpoint log to resume.
func (s *Server) gc() {
	if s.retainAge <= 0 && s.retainCount <= 0 {
		return
	}
	s.mu.Lock()
	var done []*job
	for _, j := range s.jobs {
		if j.State == stateDone {
			done = append(done, j)
		}
	}
	// Newest first, so the count limit keeps the most recent artifacts.
	sort.Slice(done, func(a, b int) bool { return done[a].doneAt.After(done[b].doneAt) })
	var evict []*job
	now := time.Now()
	for i, j := range done {
		switch {
		case s.retainCount > 0 && i >= s.retainCount:
			evict = append(evict, j)
		case s.retainAge > 0 && now.Sub(j.doneAt) > s.retainAge:
			evict = append(evict, j)
		}
	}
	for _, j := range evict {
		delete(s.jobs, j.ID)
	}
	s.mu.Unlock()
	for _, j := range evict {
		for _, p := range []string{s.specPath(j.ID), s.cellsPath(j.ID), s.resultPath(j.ID)} {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				fmt.Fprintf(os.Stderr, "llcserve: retention: %v\n", err)
			}
		}
		s.gcReaped.Inc()
		fmt.Fprintf(os.Stderr, "llcserve: retention: reaped done job %s (finished %s)\n",
			j.ID, j.doneAt.Format(time.RFC3339))
	}
}

func (s *Server) runJob(ctx context.Context, id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j.State != stateQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.State = stateRunning
	j.Done, j.Skip = 0, 0
	j.Error = ""
	// Resetting the backlog invalidates every connected event stream's
	// cursor; the generation bump tells them to replay from the start of
	// the new run instead of silently skipping its first events.
	j.events = nil
	j.gen++
	j.cancel = cancel
	j.cancelled = false
	s.cond.Broadcast()
	s.mu.Unlock()

	// OpenOrCreate recreates a torn-header log (a crash between Create
	// and the header sync leaves a short file with zero verified
	// records) instead of failing the job on every resubmit forever.
	ckpt, err := artifact.OpenOrCreate(s.cellsPath(id), campaign.Fingerprint(j.Spec))
	var res *sweep.Result
	if err == nil {
		defer ckpt.Close()
		res, _, err = campaign.Run(jctx, j.Spec, campaign.Options{
			Workers: s.workers,
			Log:     ckpt,
			Obs:     &obs.Sink{Metrics: s.metrics},
			OnCell: func(ev campaign.Event) {
				s.mu.Lock()
				defer s.mu.Unlock()
				j.events = append(j.events, ev)
				j.Done = ev.Done
				if ev.Skipped {
					j.Skip++
				}
				s.cond.Broadcast()
			},
		})
	}
	if err == nil {
		// A job is done exactly when its result file exists, after a
		// restart too, so the file is installed whole or not at all.
		err = artifact.WriteFile(s.resultPath(id), res.WriteJSON)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.State = stateDone
		j.doneAt = time.Now()
	case j.cancelled:
		j.State = stateCancelled
		j.Error = err.Error()
	case ctx.Err() != nil:
		// Daemon drain, not a job failure: completed cells are in the
		// checkpoint log and the next incarnation resumes this job.
		j.State = stateInterrupted
		j.Error = err.Error()
	default:
		j.State = stateFailed
		j.Error = err.Error()
	}
	s.cond.Broadcast()
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers. A connection that never finishes them is closed
// instead of holding a server goroutine forever.
const readHeaderTimeout = 10 * time.Second

// readBodyTimeout bounds how long a client may take to send a job
// spec's body. Once the headers are in, net/http clears the read
// deadline, so without it a client that trickles the body would hold a
// server goroutine for as long as it likes (MaxBytesReader caps only
// the size). submit sets it on its own request, around the one decode
// it bounds, rather than as http.Server.ReadTimeout, which would time
// every request of both daemons that share NewHTTPServer.
const readBodyTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server that llcserve listens with: h behind readHeaderTimeout. It sets no WriteTimeout,
// because /events streams for as long as its job runs.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	mux.HandleFunc("POST /api/v1/jobs", s.submit)
	mux.HandleFunc("GET /api/v1/jobs", s.list)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.result)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifact", s.artifact)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.events)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.cancelJob)
	return mux
}

// Health is the /healthz liveness document.
type Health struct {
	Status      string  `json:"status"`
	UptimeS     float64 `json:"uptime_s"`
	JobsRunning int     `json:"jobs_running"`
	QueueDepth  int     `json:"queue_depth"`
}

// healthz reports liveness plus the two numbers an operator checks
// first: how much is queued and how much is running.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	running := 0
	for _, j := range s.jobs {
		if j.State == stateRunning {
			running++
		}
	}
	depth := len(s.queue)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Health{
		Status:      "ok",
		UptimeS:     time.Since(s.started).Seconds(),
		JobsRunning: running,
		QueueDepth:  depth,
	})
}

// serveMetrics renders the telemetry registry as Prometheus text
// (format 0.0.4). Point-in-time gauges — queue depth, jobs by state,
// uptime, overall cells/s — are refreshed at scrape time; counters and
// histograms accumulate as jobs run.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.queue)
	byState := make(map[jobState]int)
	for _, j := range s.jobs {
		byState[j.State]++
	}
	s.mu.Unlock()
	m := s.metrics
	m.Gauge("llcserve_queue_depth").Set(float64(depth))
	for _, st := range []jobState{stateQueued, stateRunning, stateDone, stateFailed, stateCancelled, stateInterrupted} {
		m.Gauge("llcserve_jobs", "state", string(st)).Set(float64(byState[st]))
	}
	up := time.Since(s.started).Seconds()
	m.Gauge("llcserve_uptime_seconds").Set(up)
	if up > 0 {
		m.Gauge("llcserve_cells_per_second").Set(float64(s.cellsDone.Value()) / up)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WritePrometheus(w)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// submit decodes and validates a spec, then either creates a new job or
// attaches to the existing one with the same fingerprint. Jobs in a
// resumable terminal state (interrupted, cancelled, failed) re-enqueue
// — the checkpoint log makes the rerun skip verified cells. The submit
// takes no query string: a client asking for a part of the grid (say
// ?start=1&end=3) would otherwise get the whole grid run silently. It
// is checked after the body is read, under the body deadline, so a
// refused submit cannot hold the connection either.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// A writer without deadline support leaves the read unbounded, as
	// before; the daemon's own server always has it.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
	// DecodeSpec reads the body to EOF, so the whole declared body is
	// read under the deadline; net/http would otherwise discard the rest
	// before the reply, with no deadline at all.
	spec, err := sweep.DecodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		// The deadline stays: net/http's discard of the unread body
		// before the reply then fails at once and closes the connection.
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	rc.SetReadDeadline(time.Time{})
	if r.URL.RawQuery != "" {
		httpError(w, http.StatusBadRequest, "submit takes no query parameters (got %q)", r.URL.RawQuery)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	id := jobID(spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		// Persist the spec before acknowledging: the job must be
		// recoverable the moment the client learns its ID.
		err = artifact.WriteFile(s.specPath(id), func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(spec)
		})
		if err != nil {
			httpError(w, http.StatusInternalServerError, "persisting spec: %v", err)
			return
		}
		j = &job{ID: id, Spec: spec, Total: len(sweep.Expand(spec)), State: stateQueued, seq: s.next}
		s.next++
		s.jobs[id] = j
		s.enqueue(id)
		writeJSON(w, http.StatusCreated, j)
		return
	}
	switch j.State {
	case stateInterrupted, stateCancelled, stateFailed:
		j.State = stateQueued
		j.Error = ""
		s.enqueue(id)
		writeJSON(w, http.StatusAccepted, j)
	default: // queued, running, done: idempotent attach
		writeJSON(w, http.StatusOK, j)
	}
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	// Snapshot under the lock: the runner mutates jobs concurrently.
	data := make([]job, len(out))
	for i, j := range out {
		data[i] = *j
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, data)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		httpError(w, http.StatusNotFound, "no job %s", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	snap := *j
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// result streams the installed artifact file. Only done jobs have one;
// everything else is 409 so a poller can distinguish "not yet" from
// "never submitted" (404).
func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	st := j.State
	s.mu.Unlock()
	if st != stateDone {
		httpError(w, http.StatusConflict, "job %s is %s, not done", j.ID, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeFile(w, r, s.resultPath(j.ID))
}

// artifact streams the job's raw .cells checkpoint log, for a client
// that merges or exports it itself (llcsweep -merge, llccells). Only
// done jobs serve it: a running job's log is mid-append. http.ServeFile
// sets Content-Length, so a truncated transfer is detectable
// client-side even before the log's own checksums catch it.
func (s *Server) artifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	st := j.State
	s.mu.Unlock()
	if st != stateDone {
		httpError(w, http.StatusConflict, "job %s is %s, not done", j.ID, st)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, s.cellsPath(j.ID))
}

// events streams the job's per-cell completions as ndjson: the full
// backlog first, then live events until the job reaches a terminal
// state, the client disconnects, or the daemon drains (a drained
// daemon terminates open streams — a queued job will never progress in
// this incarnation, and a stream blocked on it would hold the HTTP
// server's shutdown hostage).
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.eventClients.Add(1)
	defer s.eventClients.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// A client disconnect only surfaces as a write error; wake the cond
	// loop when the request dies so the handler can notice and return.
	stop := context.AfterFunc(r.Context(), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	enc := json.NewEncoder(w)
	i, gen := 0, -1
	for {
		s.mu.Lock()
		for {
			if j.gen != gen {
				// A rerun replaced the backlog: restart the cursor so the
				// client sees the new run from its first event instead of
				// silently skipping the first i of them.
				gen, i = j.gen, 0
			}
			if i < len(j.events) || (j.State != stateQueued && j.State != stateRunning) ||
				r.Context().Err() != nil || s.draining() {
				break
			}
			s.cond.Wait()
		}
		if r.Context().Err() != nil ||
			(i >= len(j.events) && (j.State != stateQueued && j.State != stateRunning || s.draining())) {
			s.mu.Unlock()
			return
		}
		ev := j.events[i]
		i++
		s.mu.Unlock()
		if enc.Encode(ev) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// draining reports whether the Start context has been cancelled. The
// caller must hold s.mu (which orders it against Start setting s.ctx).
func (s *Server) draining() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// cancelJob stops a queued or running job. Running jobs stop at the
// next trial boundary; cells already checkpointed stay durable, so a
// later resubmit resumes rather than restarts.
func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.State {
	case stateQueued:
		j.State = stateCancelled
		j.cancelled = true
		s.cond.Broadcast()
		writeJSON(w, http.StatusOK, j)
	case stateRunning:
		j.cancelled = true
		j.cancel()
		writeJSON(w, http.StatusAccepted, j)
	default:
		httpError(w, http.StatusConflict, "job %s is %s, not cancellable", j.ID, j.State)
	}
}
