package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/sweep"

	// Register the end-to-end attack scenarios the test specs sweep.
	_ "repro/internal/scenario"
)

// fastSpec is an 8-cell grid of cheap cells for scheduling-path tests.
func fastSpec() sweep.Spec {
	return sweep.Spec{
		Experiments: []string{"evset/bins", "probe/parallel"},
		Policies:    []string{"LRU", "QLRU", "SRRIP", "Random"},
		Trials:      3,
		Seed:        7,
	}
}

// slowCellSpec is a 4-cell grid where each cell runs ~1s — long enough
// to kill a worker while its lease is provably mid-flight.
func slowCellSpec() sweep.Spec {
	return sweep.Spec{
		Experiments: []string{"probe/parallel"},
		Policies:    []string{"LRU", "QLRU", "SRRIP", "Random"},
		Trials:      400,
		Seed:        3,
	}
}

// testWorker is one in-process llcserve daemon behind httptest.
type testWorker struct {
	srv    *serve.Server
	ts     *httptest.Server
	cancel context.CancelFunc
}

func startFleetWorker(t *testing.T) *testWorker {
	t.Helper()
	s, err := serve.New(t.TempDir(), serve.Options{Workers: 1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	w := &testWorker{srv: s, ts: ts, cancel: cancel}
	t.Cleanup(w.kill)
	return w
}

// kill is the in-process stand-in for SIGKILL: sever every client
// connection, stop listening, and tear the runners down. Idempotent.
func (w *testWorker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
	w.cancel()
	w.srv.Wait()
}

// refLogBytes runs the spec sequentially in one process and returns
// the checkpoint log bytes — the clause 9 ground truth every merged
// artifact must equal.
func refLogBytes(t *testing.T, spec sweep.Spec) []byte {
	t.Helper()
	spec.Normalize()
	path := filepath.Join(t.TempDir(), "ref.cells")
	log, err := artifact.Create(path, campaign.Fingerprint(spec))
	if err != nil {
		t.Fatalf("creating reference log: %v", err)
	}
	if _, _, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 1, Log: log}); err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("closing reference log: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading reference log: %v", err)
	}
	return data
}

func runFleet(t *testing.T, spec sweep.Spec, opts Options) (string, *Stats) {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "merged.cells")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	st, err := Run(ctx, spec, dst, opts)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return dst, st
}

func requireByteIdentical(t *testing.T, mergedPath string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatalf("reading merged log: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("merged log (%d bytes) differs from single-process reference (%d bytes)", len(got), len(want))
	}
}

// TestFleetThreeWorkersByteIdentical is the happy path: three live
// workers, the grid split into single-cell and multi-cell leases, and
// a merged artifact byte-equal to the sequential single-process run.
func TestFleetThreeWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real-daemon end-to-end test; the deterministic stub tests cover the scheduling paths in -short")
	}
	spec := fastSpec()
	want := refLogBytes(t, spec)
	for _, leaseSize := range []int{1, 3} {
		var workers []string
		for range 3 {
			workers = append(workers, startFleetWorker(t).ts.URL)
		}
		dst, st := runFleet(t, spec, Options{
			Workers: workers,
			// The no-expiry assertion below needs a timeout no healthy
			// cell can outlast, even with the race detector multiplying
			// cell cost on a loaded single-core runner.
			LeaseSize:    leaseSize,
			LeaseTimeout: 5 * time.Minute,
			Poll:         10 * time.Millisecond,
		})
		requireByteIdentical(t, dst, want)
		if st.Expired != 0 || st.Duplicates != 0 {
			t.Fatalf("lease-size %d: healthy fleet saw %d expiries, %d duplicates", leaseSize, st.Expired, st.Duplicates)
		}
		if st.Merge.Records != 8 {
			t.Fatalf("lease-size %d: merged %d records, want 8", leaseSize, st.Merge.Records)
		}
	}
}

// TestFleetWorkerKilledMidLease is the failover pin: one of three
// workers dies while running a lease, the lease expires with no
// progress, the range reassigns to a surviving worker, and the merged
// artifact is still byte-identical to the uninterrupted single-process
// run (clause 9).
func TestFleetWorkerKilledMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("real-daemon end-to-end test; the deterministic stub tests cover the scheduling paths in -short")
	}
	spec := slowCellSpec()
	want := refLogBytes(t, spec)

	doomed := startFleetWorker(t)
	w2 := startFleetWorker(t)
	w3 := startFleetWorker(t)

	// Kill the doomed worker the moment its daemon reports a running
	// job — provably mid-lease.
	var killed atomic.Bool
	go func() {
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			resp, err := http.Get(doomed.ts.URL + "/api/v1/jobs")
			if err != nil {
				return // already dead
			}
			var jobs []struct {
				State string `json:"state"`
			}
			err = json.NewDecoder(resp.Body).Decode(&jobs)
			resp.Body.Close()
			if err == nil {
				for _, j := range jobs {
					if j.State == "running" {
						doomed.kill()
						killed.Store(true)
						return
					}
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	dst, st := runFleet(t, spec, Options{
		Workers:   []string{doomed.ts.URL, w2.ts.URL, w3.ts.URL},
		LeaseSize: 1,
		// Long enough that a healthy ~1s cell rarely expires even under
		// the race detector, short enough that the dead worker's lease
		// (which can never renew) reassigns without dominating the test.
		LeaseTimeout: 10 * time.Second,
		Poll:         50 * time.Millisecond,
	})
	requireByteIdentical(t, dst, want)
	if !killed.Load() {
		t.Fatal("the doomed worker was never observed running a lease before the fleet finished")
	}
	if st.Expired < 1 {
		t.Fatalf("killed worker produced %d lease expiries, want >= 1", st.Expired)
	}
	if st.Merge.Records != 4 {
		t.Fatalf("merged %d records, want 4", st.Merge.Records)
	}
}

// stubJob is one scripted job on a stubWorker: the test dictates the
// state it reports, the artifact bytes it serves, and an optional hook
// that fires after the artifact is first downloaded.
type stubJob struct {
	js      JobStatus
	body    []byte
	advance bool   // bump done_cells on every status poll (keeps the lease renewed)
	onFetch func() // fires once, after the artifact is first served
}

// stubWorker scripts the daemon protocol over real HTTP. The live
// daemons above prove the protocol end to end but cannot be made to
// interleave rare schedules on demand — a duplicate completion against
// real workers depends on which of two racing jobs finishes first.
// The stub removes the race: every state transition is an explicit
// test event, so the sequence under test runs the same way every time
// regardless of host load.
type stubWorker struct {
	ts *httptest.Server
	mu sync.Mutex
	// script answers each submission (called under mu): a nil job
	// refuses with 503. A non-nil answer attaches to the range's
	// existing job if one was already created.
	script func(start, end int) *stubJob
	jobs   map[string]*stubJob // keyed by job ID
}

func newStubWorker(t *testing.T, script func(start, end int) *stubJob) *stubWorker {
	t.Helper()
	s := &stubWorker{script: script, jobs: make(map[string]*stubJob)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		start, _ := strconv.Atoi(r.URL.Query().Get("start"))
		end, _ := strconv.Atoi(r.URL.Query().Get("end"))
		s.mu.Lock()
		j := s.script(start, end)
		if j == nil {
			s.mu.Unlock()
			http.Error(w, `{"error": "stub refuses this submission"}`, http.StatusServiceUnavailable)
			return
		}
		id := fmt.Sprintf("stub-r%d-%d", start, end)
		if exist, ok := s.jobs[id]; ok {
			j = exist
		} else {
			j.js.ID = id
			j.js.CellStart, j.js.CellEnd = start, end
			s.jobs[id] = j
		}
		js := j.js
		s.mu.Unlock()
		writeStubJSON(w, js)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		j, ok := s.jobs[r.PathValue("id")]
		if !ok {
			s.mu.Unlock()
			http.Error(w, `{"error": "no such job"}`, http.StatusNotFound)
			return
		}
		if j.advance && j.js.State == "running" {
			j.js.Done++
		}
		js := j.js
		s.mu.Unlock()
		writeStubJSON(w, js)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifact", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		j, ok := s.jobs[r.PathValue("id")]
		if !ok || j.js.State != "done" {
			s.mu.Unlock()
			http.Error(w, `{"error": "job is not done"}`, http.StatusConflict)
			return
		}
		body, hook := j.body, j.onFetch
		j.onFetch = nil
		s.mu.Unlock()
		w.Write(body)
		if hook != nil {
			hook()
		}
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func writeStubJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// setDone flips an already-submitted job to done with the given
// artifact bytes and fetch hook.
func (s *stubWorker) setDone(id string, body []byte, onFetch func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		panic("stub: setDone on a job that was never submitted: " + id)
	}
	j.js.State = "done"
	j.js.Done = j.js.Total
	j.body = body
	j.onFetch = onFetch
}

// rangeLogBytes runs cells [start, end) of the spec locally and
// returns the range checkpoint log — the bytes a worker's artifact
// endpoint serves for that lease.
func rangeLogBytes(t *testing.T, spec sweep.Spec, start, end int) []byte {
	t.Helper()
	spec.Normalize()
	path := filepath.Join(t.TempDir(), "range.cells")
	log, err := artifact.Create(path, campaign.Fingerprint(spec))
	if err != nil {
		t.Fatalf("creating range log: %v", err)
	}
	if _, _, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 1, Log: log, Owns: func(ci int) bool { return start <= ci && ci < end }}); err != nil {
		t.Fatalf("range campaign [%d, %d): %v", start, end, err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("closing range log: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading range log: %v", err)
	}
	return data
}

// TestFleetDuplicateCompletionDedupes forces the duplicate-completion
// path deterministically with scripted stub workers. Worker A wedges
// range [0, 1) — running, no progress — until its lease expires, and
// refuses resubmission so the range reassigns to worker B. The moment
// B's copy of the range is downloaded, A's zombie job flips to done
// with byte-identical bytes, so the next zombie poll downloads a
// second copy of a range the table already completed. Worker C holds
// one range open until that duplicate has landed, keeping the
// scheduling loop alive through the zombie's completion instead of
// racing it to exit. The merge collapses the duplicate under the
// byte-equal rule (clause 8) and the artifact still equals the
// single-process run (clause 9).
func TestFleetDuplicateCompletionDedupes(t *testing.T) {
	spec := sweep.Spec{
		Experiments: []string{"probe/parallel"},
		Policies:    []string{"LRU", "QLRU", "SRRIP", "Random"},
		Trials:      3,
		Seed:        7,
	}
	spec.Normalize()
	want := refLogBytes(t, spec)
	cells := len(sweep.Expand(spec))
	if cells != 4 {
		t.Fatalf("stub script expects a 4-cell grid, spec expands to %d", cells)
	}
	logs := make(map[int][]byte)
	for start := range cells {
		logs[start] = rangeLogBytes(t, spec, start, start+1)
	}

	var a, b, c *stubWorker

	// A accepts exactly one job — range [0, 1), granted first because A
	// is the first worker and [0, 1) the lowest pending range — and
	// wedges it with done_cells frozen, so the lease cannot renew and
	// must expire.
	accepted := false
	a = newStubWorker(t, func(start, end int) *stubJob {
		if accepted {
			return nil
		}
		accepted = true
		return &stubJob{js: JobStatus{State: "running", Total: end - start}}
	})

	// B finishes every range it is given instantly. When its copy of
	// the reassigned [0, 1) is downloaded, A's zombie job flips to done
	// with byte-identical bytes; once that duplicate is downloaded in
	// turn, C's held range is allowed to finish.
	b = newStubWorker(t, func(start, end int) *stubJob {
		j := &stubJob{
			js:   JobStatus{State: "done", Total: end - start, Done: end - start},
			body: logs[start],
		}
		if start == 0 {
			j.onFetch = func() {
				a.setDone("stub-r0-1", logs[0], func() {
					c.setDone("stub-r2-3", logs[2], nil)
				})
			}
		}
		return j
	})

	// C holds its range open — running, with progress on every poll so
	// its lease keeps renewing — until the duplicate has landed.
	c = newStubWorker(t, func(start, end int) *stubJob {
		return &stubJob{js: JobStatus{State: "running", Total: end - start}, advance: true}
	})

	dst, st := runFleet(t, spec, Options{
		Workers:      []string{a.ts.URL, b.ts.URL, c.ts.URL},
		LeaseSize:    1,
		LeaseTimeout: 150 * time.Millisecond,
		Poll:         10 * time.Millisecond,
	})
	requireByteIdentical(t, dst, want)
	if st.Expired != 1 {
		t.Fatalf("wedged worker produced %d lease expiries, want exactly 1", st.Expired)
	}
	if st.Duplicates != 1 {
		t.Fatalf("scripted zombie produced %d duplicate completions, want exactly 1", st.Duplicates)
	}
	if st.Merge.Records != 4 || st.Merge.Deduped != 1 {
		t.Fatalf("merge wrote %d records and deduped %d, want 4 and 1", st.Merge.Records, st.Merge.Deduped)
	}
}

// TestFleetRejectsExistingDestination pins the no-clobber contract.
func TestFleetRejectsExistingDestination(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "merged.cells")
	if err := os.WriteFile(dst, []byte("x"), 0o644); err != nil {
		t.Fatalf("planting dst: %v", err)
	}
	_, err := Run(context.Background(), fastSpec(), dst, Options{Workers: []string{"http://127.0.0.1:1"}})
	if err == nil {
		t.Fatal("Run overwrote an existing destination")
	}
}
