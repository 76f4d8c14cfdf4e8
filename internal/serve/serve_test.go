package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/sweep"

	// Register the end-to-end attack scenarios the test specs sweep.
	_ "repro/internal/scenario"
)

// tinySpec is a fast 4-cell grid; its artifact doubles as the
// byte-identity reference (sweep.Run must produce the same JSON).
func tinySpec() sweep.Spec {
	return sweep.Spec{
		Experiments: []string{"evset/bins", "probe/parallel"},
		Policies:    []string{"LRU", "QLRU"},
		Trials:      3,
		Seed:        7,
	}
}

// slowSpec is a 4-cell grid where each cell takes long enough (~1s)
// that a test can reliably cancel between cells.
func slowSpec() sweep.Spec {
	return sweep.Spec{
		Experiments: []string{"probe/parallel"},
		Policies:    []string{"LRU", "QLRU", "SRRIP", "Random"},
		Trials:      400,
		Seed:        3,
	}
}

func startServer(t *testing.T, dir string) (*Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	s, err := New(dir, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewHTTPServer(s.Handler()) // the daemon's own timeouts
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.Wait()
	})
	return s, ts, cancel
}

func postSpec(t *testing.T, ts *httptest.Server, spec sweep.Spec) (int, job) {
	t.Helper()
	return postSpecURL(t, ts.URL+"/api/v1/jobs", spec)
}

func postSpecURL(t *testing.T, url string, spec sweep.Spec) (int, job) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var j job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decoding job: %v", err)
	}
	return resp.StatusCode, j
}

func getStatus(t *testing.T, ts *httptest.Server, id string) job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: status %d", resp.StatusCode)
	}
	var j job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return j
}

// waitState polls the status endpoint until pred holds or the deadline
// passes.
func waitState(t *testing.T, ts *httptest.Server, id string, what string, pred func(job) bool) job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j := getStatus(t, ts, id)
		if pred(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s; last: %s %d/%d (%s)", id, what, j.State, j.Done, j.Total, j.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSubmitRunResult(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	spec := tinySpec()

	code, j := postSpec(t, ts, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d, want 201", code)
	}
	if j.ID != jobID(specNormalized(spec)) || j.Total != 4 {
		t.Fatalf("job = %+v", j)
	}
	done := waitState(t, ts, j.ID, "done", func(j job) bool { return j.State == stateDone })
	if done.Done != 4 || done.Error != "" {
		t.Fatalf("done job = %+v", done)
	}

	// Resubmitting the identical spec attaches idempotently.
	code, j2 := postSpec(t, ts, spec)
	if code != http.StatusOK || j2.ID != j.ID || j2.State != stateDone {
		t.Fatalf("resubmit: status %d job %+v", code, j2)
	}

	// The served artifact must be byte-identical to the flattened
	// sweep.Run path — the campaign layer's central contract.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d: %s", resp.StatusCode, got.String())
	}
	res, err := sweep.Run(context.Background(), spec, 1)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatalf("encoding reference: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("served artifact differs from sweep.Run artifact")
	}
}

func specNormalized(spec sweep.Spec) sweep.Spec {
	spec.Normalize()
	return spec
}

func TestEventsStreamBacklogAndCounts(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	_, j := postSpec(t, ts, tinySpec())
	waitState(t, ts, j.ID, "done", func(j job) bool { return j.State == stateDone })

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var evs []campaign.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev campaign.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Done != i+1 || ev.Total != 4 || ev.Skipped {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := startServer(t, dir)
	valid, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	for _, body := range []string{
		"{not json",
		`{"unknown_field": 1}`,
		`{"experiments": ["no/such/experiment"], "trials": 3}`,
		`{"trials": -1}`,
		// Trailing data after a valid spec: decoding only the first
		// value would run a different grid than the body declares.
		string(valid) + `{"trials": -1}`,
		string(valid) + "garbage",
		string(valid) + "]",
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	specs, err := filepath.Glob(filepath.Join(dir, "*.spec.json"))
	if err != nil || len(specs) != 0 {
		t.Fatalf("rejected submits left spec files %v (%v)", specs, err)
	}
	// Trailing whitespace is not trailing data.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(valid)+"\n"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("spec with a trailing newline: status %d, want 201", resp.StatusCode)
	}
}

// A submit with a query string is refused before anything is
// persisted: a client asking for part of the grid (?start=1&end=3)
// must not have the whole grid run in its place.
func TestSubmitRejectsQueryString(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := startServer(t, dir)
	code, _ := postSpecURL(t, ts.URL+"/api/v1/jobs?start=1&end=3", tinySpec())
	if code != http.StatusBadRequest {
		t.Fatalf("submit with ?start=1&end=3: status %d, want 400", code)
	}
	specs, err := filepath.Glob(filepath.Join(dir, "*.spec.json"))
	if err != nil || len(specs) != 0 {
		t.Fatalf("rejected submit left spec files %v (%v)", specs, err)
	}
}

func TestUnknownJobIs404AndEarlyResultIs409(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/api/v1/jobs/deadbeefdeadbeef")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}

	_, j := postSpec(t, ts, slowSpec())
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result before done: status %d, want 409", resp.StatusCode)
	}
}

// The artifact endpoint's error paths: unknown job 404, not-done 409,
// and wrong HTTP method 405 (the mux method patterns).
func TestArtifactEndpointErrorPaths(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())

	resp, err := http.Get(ts.URL + "/api/v1/jobs/deadbeefdeadbeef/artifact")
	if err != nil {
		t.Fatalf("GET artifact: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job artifact: status %d, want 404", resp.StatusCode)
	}

	// A running (or queued) job must refuse the download — its log is
	// mid-append.
	_, j := postSpec(t, ts, slowSpec())
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/artifact")
	if err != nil {
		t.Fatalf("GET artifact: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("artifact before done: status %d, want 409", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/api/v1/jobs/"+j.ID+"/artifact", "", nil)
	if err != nil {
		t.Fatalf("POST artifact: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST to artifact endpoint: status %d, want 405", resp.StatusCode)
	}
}

// TestArtifactDownloadHoldsGridKeys downloads a done job's raw
// checkpoint log and verifies it as exactly the grid's cells.
func TestArtifactDownloadHoldsGridKeys(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	spec := specNormalized(tinySpec())
	code, j := postSpec(t, ts, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d, want 201", code)
	}
	waitState(t, ts, j.ID, "done", func(j job) bool { return j.State == stateDone })

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/artifact")
	if err != nil {
		t.Fatalf("GET artifact: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact: status %d, want 200", resp.StatusCode)
	}
	dst := filepath.Join(t.TempDir(), "job.cells")
	f, err := os.Create(dst)
	if err != nil {
		t.Fatalf("creating download target: %v", err)
	}
	if _, err := f.ReadFrom(resp.Body); err != nil {
		t.Fatalf("downloading artifact: %v", err)
	}
	f.Close()
	var keys []string
	for _, c := range sweep.Expand(spec) {
		keys = append(keys, c.Key)
	}
	n, err := artifact.CheckKeys(dst, campaign.Fingerprint(spec), keys)
	if err != nil {
		t.Fatalf("downloaded log failed verification: %v", err)
	}
	if n != len(keys) {
		t.Fatalf("downloaded log holds %d records, want %d", n, len(keys))
	}
}

// TestRestartReloadsJobStates restarts a daemon over a data directory
// holding one finished and one never-started job: the finished one is
// done (from its result file, with a completion time), the other is
// interrupted, and a spec file whose name is not its fingerprint stops
// the next incarnation, naming it.
func TestRestartReloadsJobStates(t *testing.T) {
	dir := t.TempDir()
	spec := specNormalized(tinySpec())

	s1, err := New(dir, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	s1.Start(ctx1)
	ts1 := httptest.NewServer(s1.Handler())
	_, j := postSpec(t, ts1, spec)
	waitState(t, ts1, j.ID, "done", func(j job) bool { return j.State == stateDone })
	cancel1()
	s1.Wait()
	ts1.Close()

	plant := func(id string, spec sweep.Spec) {
		t.Helper()
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".spec.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatalf("planting spec: %v", err)
		}
	}
	// A second job's spec with no checkpoint log at all: a previous
	// incarnation accepted it but never ran a cell.
	other := specNormalized(slowSpec())
	otherID := jobID(other)
	plant(otherID, other)

	s2, err := New(dir, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	s2.mu.Lock()
	finished, fresh := s2.jobs[j.ID], s2.jobs[otherID]
	s2.mu.Unlock()
	if finished == nil || finished.State != stateDone || finished.Done != finished.Total {
		t.Fatalf("restart sees finished job as %+v, want done with every cell", finished)
	}
	if finished.doneAt.IsZero() {
		t.Fatalf("restart left doneAt zero; retention would treat the job as infinitely old")
	}
	if fresh == nil || fresh.State != stateInterrupted {
		t.Fatalf("restart sees never-started job as %+v, want interrupted", fresh)
	}

	// A leftover cell-range job ("<fp>-r0-2") is not its fingerprint.
	stale := j.ID + "-r0-2"
	plant(stale, spec)
	if _, err := New(dir, Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), stale) {
		t.Fatalf("New over a leftover %s spec: err = %v, want one naming the job", stale, err)
	}
}

// TestCancelThenResubmitResumes is the durability round-trip: cancel a
// running job after at least one cell checkpoints, resubmit the same
// spec, and require the finished artifact byte-identical to an
// uninterrupted run — with the resumed pass skipping verified cells.
func TestCancelThenResubmitResumes(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	spec := slowSpec()
	code, j := postSpec(t, ts, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, j.ID, "first cell done", func(j job) bool { return j.Done >= 1 })

	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+j.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	waitState(t, ts, j.ID, "cancelled", func(j job) bool { return j.State == stateCancelled })

	// Cancelling a terminal job is refused.
	resp, err = http.Post(ts.URL+"/api/v1/jobs/"+j.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", resp.StatusCode)
	}

	code, _ = postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d, want 202", code)
	}
	done := waitState(t, ts, j.ID, "done", func(j job) bool { return j.State == stateDone })
	if done.Skip < 1 {
		t.Fatalf("resumed run skipped %d cells, want >= 1", done.Skip)
	}

	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	res, err := sweep.Run(context.Background(), spec, 0)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	var want bytes.Buffer
	res.WriteJSON(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed artifact differs from uninterrupted sweep artifact")
	}
}

// TestDrainMarksInterruptedAndRestartResumes shuts the daemon down
// mid-campaign and brings a new incarnation up on the same data
// directory: the job must surface as interrupted, resubmit must
// resume, and the artifact must match an uninterrupted run.
func TestDrainMarksInterruptedAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	spec := slowSpec()

	s1, err := New(dir, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	s1.Start(ctx1)
	ts1 := httptest.NewServer(s1.Handler())
	_, j := postSpec(t, ts1, spec)
	waitState(t, ts1, j.ID, "first cell done", func(j job) bool { return j.Done >= 1 })
	cancel1() // daemon drain: the campaign stops at the next trial boundary
	s1.Wait()
	ts1.Close()

	s2, ts2, _ := startServer(t, dir)
	s2.mu.Lock()
	j2, ok := s2.jobs[j.ID]
	st := stateQueued
	if ok {
		st = j2.State
	}
	s2.mu.Unlock()
	if !ok || st != stateInterrupted {
		t.Fatalf("restarted server sees job as %v (ok=%v), want interrupted", st, ok)
	}

	code, _ := postSpec(t, ts2, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after restart: status %d, want 202", code)
	}
	done := waitState(t, ts2, j.ID, "done", func(j job) bool { return j.State == stateDone })
	if done.Skip < 1 {
		t.Fatalf("restarted run skipped %d cells, want >= 1", done.Skip)
	}

	resp, err := http.Get(ts2.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	res, err := sweep.Run(context.Background(), spec, 0)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	var want bytes.Buffer
	res.WriteJSON(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("post-restart artifact differs from uninterrupted sweep artifact")
	}

	// A third incarnation over the finished directory lists it as done.
	s3, err := New(dir, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New (third): %v", err)
	}
	s3.mu.Lock()
	j3 := s3.jobs[j.ID]
	s3.mu.Unlock()
	if j3 == nil || j3.State != stateDone {
		t.Fatalf("third incarnation sees %+v, want done", j3)
	}
}

func TestListOrdersBySubmission(t *testing.T) {
	_, ts, _ := startServer(t, t.TempDir())
	a := tinySpec()
	b := tinySpec()
	b.Seed = 99 // different fingerprint
	_, ja := postSpec(t, ts, a)
	_, jb := postSpec(t, ts, b)
	if ja.ID == jb.ID {
		t.Fatalf("distinct specs share job ID %s", ja.ID)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	defer resp.Body.Close()
	var jobs []job
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(jobs) != 2 || jobs[0].ID != ja.ID || jobs[1].ID != jb.ID {
		ids := make([]string, len(jobs))
		for i, j := range jobs {
			ids[i] = fmt.Sprintf("%s(%s)", j.ID, j.State)
		}
		t.Fatalf("list = %v, want [%s %s]", ids, ja.ID, jb.ID)
	}
}

// Regression: submit used to send the job ID on a bounded channel
// (capacity 1024) while still holding s.mu. Once enough jobs backed up
// the send blocked inside the lock, and every other handler — plus the
// runner itself, whose OnCell callback needs s.mu — deadlocked behind
// it. The queue is an unbounded slice now, so well over 1024 submits
// must complete even when nothing is draining the queue at all.
func TestSubmitManyQueuedDoesNotDeadlock(t *testing.T) {
	s, err := New(t.TempDir(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Deliberately never s.Start: the queue only grows.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const submits = 1100
	errc := make(chan error, 1)
	go func() {
		for i := range submits {
			spec := tinySpec()
			spec.Seed = uint64(1000 + i) // distinct fingerprint per submit
			body, err := json.Marshal(spec)
			if err == nil {
				var resp *http.Response
				resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusCreated {
						err = fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
					}
				}
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("submitting: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("submit deadlocked with a full queue and no runner")
	}
	s.mu.Lock()
	queued := len(s.queue)
	s.mu.Unlock()
	if queued != submits {
		t.Fatalf("queue holds %d of %d submitted jobs", queued, submits)
	}
}

// Regression: a crash between artifact.Create and the header
// write/sync leaves a .cells file shorter than one header. runJob used
// to artifact.Open it, fail, and fail identically on every resubmit —
// the job was wedged forever even though the log provably held zero
// verified records. OpenOrCreate recreates such a file, so the
// resubmit must now run to done.
func TestTornHeaderCellsRecovers(t *testing.T) {
	dir := t.TempDir()
	spec := specNormalized(tinySpec())
	id := jobID(spec)
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".spec.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatalf("writing spec: %v", err)
	}
	// 7 bytes: torn mid-header, no record could have been appended.
	if err := os.WriteFile(filepath.Join(dir, id+".cells"), []byte("LLCA\x01\x00\x00"), 0o644); err != nil {
		t.Fatalf("writing torn log: %v", err)
	}

	_, ts, _ := startServer(t, dir)
	code, j := postSpec(t, ts, tinySpec())
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of interrupted job: status %d, want 202", code)
	}
	done := waitState(t, ts, j.ID, "done", func(j job) bool { return j.State == stateDone })
	if done.Error != "" || done.Done != 4 {
		t.Fatalf("job after torn-header recovery = %+v", done)
	}
}

// Regression: runJob resets j.events when a rerun starts, but a
// connected /events client kept its old slice index and silently
// skipped the first i events of the new run. The generation counter
// must make the stream replay the rerun from its first event.
func TestEventsReplayAfterResubmit(t *testing.T) {
	s, err := New(t.TempDir(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No runner yet: the job stays queued, exactly the window between a
	// resubmit and its rerun starting.
	_, j0 := postSpec(t, ts, tinySpec())

	// A resubmit re-enqueues without clearing events, so a stale backlog
	// from the previous run is still attached. Fabricate one with Done
	// values no real 4-cell run produces.
	const fakes = 4
	s.mu.Lock()
	jj := s.jobs[j0.ID]
	for i := range fakes {
		jj.events = append(jj.events, campaign.Event{Cell: i, Done: 100 + i, Total: 4})
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j0.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	stale := 0
	for stale < fakes && sc.Scan() {
		var ev campaign.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("decoding stale event: %v", err)
		}
		if ev.Done < 100 {
			t.Fatalf("expected fabricated backlog first, got %+v", ev)
		}
		stale++
	}
	if stale != fakes {
		t.Fatalf("read %d of %d stale events before stream ended", stale, fakes)
	}

	// The client is parked at index == fakes. Now let the rerun start
	// and reset the backlog.
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	t.Cleanup(func() {
		cancel()
		s.Wait()
	})

	var live []campaign.Event
	for sc.Scan() {
		var ev campaign.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("decoding live event: %v", err)
		}
		live = append(live, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events stream: %v", err)
	}
	if len(live) != 4 || live[0].Done != 1 || live[3].Done != 4 {
		t.Fatalf("rerun stream = %+v, want the full run replayed from Done=1", live)
	}
}

// Two jobs must run simultaneously under -jobs 2; the FIFO-of-one this
// replaced could never reach that state.
func TestConcurrentJobsRunTogether(t *testing.T) {
	s, err := New(t.TempDir(), Options{Workers: 2, Jobs: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewHTTPServer(s.Handler()) // the daemon's own timeouts
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.Wait()
	})

	a := slowSpec()
	b := slowSpec()
	b.Seed = 11
	_, ja := postSpec(t, ts, a)
	_, jb := postSpec(t, ts, b)
	deadline := time.Now().Add(time.Minute)
	for {
		sa := getStatus(t, ts, ja.ID).State
		sb := getStatus(t, ts, jb.ID).State
		if sa == stateRunning && sb == stateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never ran concurrently: %s / %s", sa, sb)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range []string{ja.ID, jb.ID} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatalf("cancel: %v", err)
		}
		resp.Body.Close()
		waitState(t, ts, id, "terminal", func(j job) bool {
			return j.State == stateCancelled || j.State == stateDone
		})
	}
}

// Retention reaps only done jobs — oldest first past the count limit or
// the age limit — and removes the whole spec/cells/result triple plus
// the jobs-map entry. Non-terminal jobs keep their files no matter how
// old they are.
func TestRetentionGC(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Options{Workers: 1, RetainAge: time.Hour, RetainCount: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	plant := func(id string, state jobState, doneAt time.Time) {
		t.Helper()
		for _, p := range []string{s.specPath(id), s.cellsPath(id), s.resultPath(id)} {
			if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
				t.Fatalf("planting %s: %v", p, err)
			}
		}
		s.jobs[id] = &job{ID: id, State: state, doneAt: doneAt}
	}
	const (
		oldDone = "00000000000000aa" // reaped: past the count limit and the age limit
		newDone = "00000000000000bb" // kept: newest done job, within age
		wedged  = "00000000000000cc" // interrupted: never a GC candidate
	)
	plant(oldDone, stateDone, time.Now().Add(-2*time.Hour))
	plant(newDone, stateDone, time.Now())
	plant(wedged, stateInterrupted, time.Now().Add(-48*time.Hour))

	s.gc()

	s.mu.Lock()
	_, hasOld := s.jobs[oldDone]
	_, hasNew := s.jobs[newDone]
	_, hasWedged := s.jobs[wedged]
	s.mu.Unlock()
	if hasOld || !hasNew || !hasWedged {
		t.Fatalf("jobs after gc: old=%v new=%v interrupted=%v, want false/true/true", hasOld, hasNew, hasWedged)
	}
	for id, want := range map[string]bool{oldDone: false, newDone: true, wedged: true} {
		for _, p := range []string{s.specPath(id), s.cellsPath(id), s.resultPath(id)} {
			_, err := os.Stat(p)
			if got := err == nil; got != want {
				t.Fatalf("%s: exists=%v, want %v", p, got, want)
			}
		}
	}
}

// TestDrainLeavesNoGoroutines pins the full drain contract: with
// retention configured (its ticker goroutine running) and an /events
// stream blocked on a QUEUED job (which will never progress in this
// incarnation), cancelling the daemon context must terminate the
// runners, the retention ticker, AND the event stream — Wait must
// return promptly and the goroutine count must fall back to its
// pre-start baseline. The events leg is a regression: the stream's
// wait loop used to block on job state alone, so a drained daemon held
// the handler goroutine (and any HTTP shutdown behind it) forever.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, err := New(t.TempDir(), Options{Workers: 1, Jobs: 1, RetainAge: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())

	// Occupy the single runner slot so the next job stays queued.
	_, running := postSpec(t, ts, slowSpec())
	waitState(t, ts, running.ID, "running", func(j job) bool { return j.State == stateRunning })
	_, queued := postSpec(t, ts, tinySpec())

	// Park an events stream on the queued job; it has no backlog and no
	// terminal state, so the handler blocks in the cond wait.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + queued.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	streamDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		resp.Body.Close()
		streamDone <- sc.Err()
	}()

	cancel()
	waitDone := make(chan struct{})
	go func() {
		s.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(time.Minute):
		t.Fatal("Wait did not return after drain (runner or retention ticker leaked)")
	}
	select {
	case <-streamDone:
	case <-time.After(30 * time.Second):
		t.Fatal("events stream on a queued job survived the drain")
	}
	ts.Close()

	// Give exiting goroutines a moment to unwind, then require the
	// count back at baseline (with slack for the test's own plumbing
	// and httptest teardown).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after drain: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSlowHeaderClientDisconnected: a client that starts a request and
// never finishes its headers is disconnected after readHeaderTimeout
// instead of pinning a connection forever.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	hs := NewHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout = %v, WriteTimeout = %v; want a header bound and no write bound",
			hs.ReadHeaderTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the half-sent request open: %v", err)
	}
}

// TestSlowBodyClientCutOff: a client that sends a job's headers and
// then trickles its body is answered 400 once the body deadline passes,
// instead of holding the submit handler open.
func TestSlowBodyClientCutOff(t *testing.T) {
	s, ts, _ := startServer(t, t.TempDir())
	s.bodyTimeout = 100 * time.Millisecond
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /api/v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 200\r\n\r\n{\"trials\""); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to the trickled body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trickled body answered %d, want 400", resp.StatusCode)
	}
}

// TestSlowBodyTailCutOff: a client that sends a whole valid spec but
// then trickles the rest of its declared body is answered 400 once the
// body deadline passes. The spec alone must not clear the deadline:
// net/http reads the unread tail before the reply, and would wait for
// it forever.
func TestSlowBodyTailCutOff(t *testing.T) {
	s, ts, _ := startServer(t, t.TempDir())
	s.bodyTimeout = 100 * time.Millisecond
	spec, err := json.Marshal(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /api/v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(spec)+100)
	if _, err := io.WriteString(conn, head+string(spec)+" "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to the spec with a trickled tail: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec with a trickled tail answered %d, want 400", resp.StatusCode)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d jobs created from an unfinished body, want none", n)
	}
}

// TestEventsOutliveBodyDeadline: the body deadline is the submit
// request's alone. A job's /events stream, read on the connection that
// submitted it, runs well past the deadline and still ends with the
// job's last cell.
func TestEventsOutliveBodyDeadline(t *testing.T) {
	s, ts, _ := startServer(t, t.TempDir())
	s.bodyTimeout = 20 * time.Millisecond
	spec := slowSpec()
	spec.Policies, spec.Trials = spec.Policies[:2], 100
	start := time.Now()
	_, j := postSpec(t, ts, spec)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	var last campaign.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events stream cut: %v", err)
	}
	if last.Done != last.Total || last.Total != 2 {
		t.Fatalf("stream ended at %+v, want the job's last cell", last)
	}
	if took := time.Since(start); took < 4*s.bodyTimeout {
		t.Fatalf("the job took %v, too short to outlive the %v body deadline", took, s.bodyTimeout)
	}
}
