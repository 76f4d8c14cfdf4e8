package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

// serviceSpec is op seed's job: one probe/parallel cell, one trial. A
// new seed is a new spec fingerprint, hence a new job.
func serviceSpec(seed uint64) sweep.Spec {
	s := sweep.Spec{
		Experiments: []string{"probe/parallel"},
		Policies:    []string{"LRU"},
		NoiseRates:  []float64{11.5},
		Trials:      1,
		Seed:        seed,
	}
	s.Normalize()
	return s
}

// serviceJob is op seed's job as the JSON body of a submit.
func serviceJob(seed uint64) []byte {
	js, err := json.Marshal(serviceSpec(seed))
	if err != nil {
		panic(err) // a sweep.Spec is plain data and always marshals
	}
	return js
}

// daemon is an in-process serve.Server behind a loopback httptest
// server.
type daemon struct {
	srv    *serve.Server
	http   *httptest.Server
	cancel context.CancelFunc
}

func startDaemon(dataDir string) (*daemon, error) {
	srv, err := serve.New(dataDir, serve.Options{Workers: 1, Jobs: 1})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	d := &daemon{srv: srv, http: httptest.NewServer(srv.Handler()), cancel: cancel}
	if _, err := d.call("GET", "/healthz", nil, http.StatusOK); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the HTTP server, drains the daemon and waits for its
// runners to exit.
func (d *daemon) stop() {
	d.http.Close()
	d.cancel()
	d.srv.Wait()
}

// call issues one request and returns the body, failing on any status
// other than want.
func (d *daemon) call(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// submit posts a spec and returns the job id.
func (d *daemon) submit(spec []byte, want int) (string, error) {
	data, err := d.call("POST", "/api/v1/jobs", spec, want)
	if err != nil {
		return "", err
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &j); err != nil || j.ID == "" {
		return "", fmt.Errorf("submit: no job id in %q", data)
	}
	return j.ID, nil
}

// queueDepth scrapes llcserve_queue_depth from /metrics.
func (d *daemon) queueDepth() (float64, error) {
	data, err := d.call("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "llcserve_queue_depth "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no llcserve_queue_depth")
}

// jobTimes splits one op's client-observed host time.
type jobTimes struct {
	submit, run, result time.Duration
	queue               float64
}

// newJob is one op: submit a new job, wait for its /events stream to
// end, then fetch /result. When traced, a /metrics scrape right after
// the submit samples the queue depth; the daemon is already running the
// job then, so the scrape counts toward the run time.
func (d *daemon) newJob(spec []byte, traced bool) (jobTimes, []byte, error) {
	var t jobTimes
	t0 := time.Now()
	id, err := d.submit(spec, http.StatusCreated)
	t.submit = time.Since(t0)
	if err != nil {
		return t, nil, err
	}
	t0 = time.Now()
	if traced {
		if t.queue, err = d.queueDepth(); err != nil {
			return t, nil, err
		}
	}
	if _, err := d.call("GET", "/api/v1/jobs/"+id+"/events", nil, http.StatusOK); err != nil {
		return t, nil, err
	}
	t.run = time.Since(t0)
	t0 = time.Now()
	body, err := d.call("GET", "/api/v1/jobs/"+id+"/result", nil, http.StatusOK)
	t.result = time.Since(t0)
	return t, body, err
}

// fetchDone re-submits an already-done job (an idempotent attach) and
// fetches its result: the read path.
func (d *daemon) fetchDone(spec []byte) (attach, total time.Duration, body []byte, err error) {
	t0 := time.Now()
	id, err := d.submit(spec, http.StatusOK)
	attach = time.Since(t0)
	if err == nil {
		body, err = d.call("GET", "/api/v1/jobs/"+id+"/result", nil, http.StatusOK)
	}
	return attach, time.Since(t0), body, err
}

// runService drives an in-process daemon (Workers 1, Jobs 1) with one
// closed-loop client: each op is a new one-cell job, and between ops the
// client re-fetches a job it already completed.
func runService(b *bench) error {
	// Set-up: daemon start, the first job's spec expansion and its host.
	var d *daemon
	k := 0
	err := b.repeatSetup(func(last bool) error {
		k++
		var err error
		d, err = startDaemon(filepath.Join(b.dir, fmt.Sprintf("daemon-%d", k)))
		if err != nil {
			return err
		}
		spec := serviceSpec(1)
		if err := spec.Validate(); err != nil {
			return err
		}
		c := sweep.Expand(spec)[0]
		hierarchy.NewHost(c.Config, c.Seed)
		if !last {
			d.stop()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.stop()

	pick := xrand.New(xrand.Stream(b.opt.seed, 0xfe7c4))
	var (
		done                                    []uint64
		submitS, runS, resultS, attachS, fetchS []float64
		queueMax                                float64
	)
	for i, seed := range b.ops {
		b.calibrateBefore(i)
		name := fmt.Sprintf("service job seed %d", seed)
		var t jobTimes
		var body []byte
		_, ok := b.timeOp(name, func() error {
			var err error
			t, body, err = d.newJob(serviceJob(seed), b.opt.trace)
			return err
		})
		if ok && b.checkService(name, seed, body) {
			done = append(done, seed)
			submitS = append(submitS, t.submit.Seconds())
			runS = append(runS, t.run.Seconds())
			resultS = append(resultS, t.result.Seconds())
			queueMax = max(queueMax, t.queue)
		}
		if len(done) == 0 {
			continue
		}
		// The read path: re-submit and fetch a done job.
		old := done[pick.Intn(len(done))]
		b.attempted++
		attach, total, body, err := d.fetchDone(serviceJob(old))
		b.loopS[i] += total.Seconds()
		if err != nil {
			b.fail(fmt.Sprintf("re-fetch of seed %d: %v", old, err))
			continue
		}
		if !b.checkOp(fmt.Sprintf("re-fetch of seed %d", old), map[string]string{fmt.Sprint(old): digest(body)}) {
			continue
		}
		attachS = append(attachS, attach.Seconds())
		fetchS = append(fetchS, total.Seconds())
	}
	b.calibrate()

	if !b.opt.trace {
		return nil
	}
	b.layer["serve.submit_s"] = mean(submitS)
	b.layer["serve.run_s"] = mean(runS)
	b.layer["serve.result_s"] = mean(resultS)
	b.layer["serve.attach_s"] = mean(attachS)
	b.layer["serve.fetch_s_p50"] = median(fetchS)
	if v, ok := p90(b.opS); ok {
		b.layer["serve.op_s_p90"] = v
	}
	b.layer["serve.queue_depth_max"] = queueMax
	n := float64(len(b.ops)) // jobs the daemon ran
	var cellS, trialS float64
	for _, s := range d.srv.Metrics().Snapshot() {
		switch s.Name {
		case "campaign_cell_seconds":
			cellS += s.Sum
		case "engine_trial_seconds":
			trialS += s.Sum
			b.layer["engine.trials"] = float64(s.Count) / n
			if s.Count > 0 {
				b.layer["engine.trial_s"] = s.Sum / float64(s.Count)
			}
		}
	}
	b.layer["campaign.overhead_s"] = (cellS - trialS) / n
	// trace.overhead_frac stays 0: the daemon keeps its registry and
	// runs without a tracer in both modes, so there is no tracing to
	// price here.

	cfg := sweep.Expand(serviceSpec(1))[0].Config
	var hosts []float64
	for i := range 20 {
		t0 := time.Now()
		hierarchy.NewHost(cfg, uint64(i))
		hosts = append(hosts, time.Since(t0).Seconds())
	}
	b.layer["hierarchy.new_host_s"] = mean(hosts)
	return nil
}

// checkService verifies one /result body against its digest.
func (b *bench) checkService(name string, seed uint64, body []byte) bool {
	if !b.checkOp(name, map[string]string{fmt.Sprint(seed): digest(body)}) {
		return false
	}
	var res sweep.Result
	if err := json.Unmarshal(body, &res); err != nil {
		b.fail(fmt.Sprintf("%s: decoding result: %v", name, err))
		return false
	}
	b.addCells(res.Cells)
	return true
}
