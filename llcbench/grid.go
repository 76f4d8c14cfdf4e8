package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// The grid workload's fixed simulation-only grid: every cell runs on
// the cache, hierarchy, tenant, evset and probe layers; none trains a
// classifier or runs the lattice.
var (
	gridExperiments = []string{"evset/bins", "probe/detect", "probe/parallel", "scenario/covert/channel"}
	gridPolicies    = []string{"LRU", "Tree-PLRU", "SRRIP", "QLRU", "Random"}
)

// gridSpec is op seed's campaign: the fixed grid at the Cloud Run noise
// rate under two tenant models, one trial per cell.
func gridSpec(seed uint64) sweep.Spec {
	s := sweep.Spec{
		Experiments:  gridExperiments,
		Policies:     gridPolicies,
		NoiseRates:   []float64{11.5},
		TenantModels: []string{"poisson", "stream"},
		Trials:       1,
		Seed:         seed,
	}
	s.Normalize()
	return s
}

// runGrid runs one complete campaign per op into a fresh checkpoint log
// with GOMAXPROCS cell workers, and checks the Result JSON and the
// canonical (merged) log bytes.
func runGrid(b *bench) error {
	// Set-up: spec validation and expansion, the log fingerprint, a
	// fresh checkpoint log, and the first cell's host.
	err := b.repeatSetup(func(bool) error {
		spec := gridSpec(0)
		if err := spec.Validate(); err != nil {
			return err
		}
		cls := sweep.Expand(spec)
		path := filepath.Join(b.dir, "setup.cells")
		l, err := artifact.Create(path, campaign.Fingerprint(spec))
		if err != nil {
			return err
		}
		hierarchy.NewHost(cls[0].Config, cls[0].Seed)
		if err := l.Close(); err != nil {
			return err
		}
		return os.Remove(path)
	})
	if err != nil {
		return err
	}

	workers := runtime.GOMAXPROCS(0)
	lt := newGridLayers()
	stop := b.sampleDuring()
	for _, seed := range b.ops {
		spec := gridSpec(seed)
		fp := campaign.Fingerprint(spec)
		path := filepath.Join(b.dir, fmt.Sprintf("grid-%d.cells", seed))
		name := fmt.Sprintf("grid seed %d", seed)
		var (
			res   *sweep.Result
			sink  *obs.Sink
			start time.Time
			done  = map[int]time.Time{}
			order []time.Time
		)
		if b.opt.trace {
			sink = &obs.Sink{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
		}
		_, ok := b.timeOp(name, func() error {
			l, err := artifact.Create(path, fp)
			if err != nil {
				return err
			}
			start = time.Now()
			res, _, err = campaign.Run(context.Background(), spec, campaign.Options{
				Workers: workers,
				Log:     l,
				Obs:     sink,
				OnCell: func(ev campaign.Event) {
					if sink != nil {
						now := time.Now()
						done[ev.Cell] = now
						order = append(order, now)
					}
				},
			})
			if cerr := l.Close(); err == nil {
				err = cerr
			}
			return err
		})
		if !ok {
			continue
		}
		wall := time.Since(start)
		if b.opt.trace {
			lt.cells(spec, workers, start, wall, done, order)
			lt.engine(sink.Metrics)
		}
		if !b.checkGrid(name, seed, spec, fp, path, res, lt) {
			continue
		}
		b.addCells(res.Cells)
	}
	stop()

	if b.opt.trace {
		overhead, err := traceOverhead(func(sink *obs.Sink) error {
			_, _, err := campaign.Run(context.Background(), gridSpec(b.ops[0]), campaign.Options{Workers: workers, Obs: sink})
			return err
		})
		if err != nil {
			return err
		}
		lt.report(b, len(b.ops))
		b.layer["trace.overhead_frac"] = overhead
	}
	return nil
}

// checkGrid verifies one campaign's outputs: the Result JSON and the
// checkpoint log, canonicalised by merging it into Expand order (cells
// finish, and so append, in scheduling order). A traced run also times
// the artifact calls on the log's records, the resume path and sweep.Run
// over the same grid, whose Results must equal the campaign's. It
// removes the op's files and reports whether every check passed.
func (b *bench) checkGrid(name string, seed uint64, spec sweep.Spec, fp uint64, path string, res *sweep.Result, lt *gridLayers) bool {
	merged := path + ".merged"
	defer os.Remove(path)
	defer os.Remove(merged)
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		b.fail(fmt.Sprintf("%s: encoding result: %v", name, err))
		return false
	}
	t0 := time.Now()
	if _, err := campaign.Merge(spec, merged, []string{path}); err != nil {
		b.fail(fmt.Sprintf("%s: canonicalising log: %v", name, err))
		return false
	}
	lt.add("artifact.merge_s", time.Since(t0))
	logBytes, err := os.ReadFile(merged)
	if err != nil {
		b.fail(fmt.Sprintf("%s: %v", name, err))
		return false
	}
	if !b.checkOp(name, map[string]string{
		fmt.Sprintf("%d/result", seed): digest(js.Bytes()),
		fmt.Sprintf("%d/cells", seed):  digest(logBytes),
	}) {
		return false
	}
	if !b.opt.trace {
		return true
	}
	if err := lt.artifactCalls(spec, fp, path, merged, filepath.Join(b.dir, "append.cells")); err != nil {
		b.fail(fmt.Sprintf("%s: %v", name, err))
		return false
	}
	// The resume path: a rerun on the complete log restores every cell.
	l, err := artifact.Open(path, fp)
	if err != nil {
		b.fail(fmt.Sprintf("%s: reopening log: %v", name, err))
		return false
	}
	t0 = time.Now()
	resumed, _, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: runtime.GOMAXPROCS(0), Log: l})
	lt.add("campaign.resume_s", time.Since(t0))
	l.Close()
	if err != nil {
		b.fail(fmt.Sprintf("%s: resume: %v", name, err))
		return false
	}
	t0 = time.Now()
	flat, err := sweep.Run(context.Background(), spec, runtime.GOMAXPROCS(0))
	lt.add("sweep.run_s", time.Since(t0))
	if err != nil {
		b.fail(fmt.Sprintf("%s: sweep.Run: %v", name, err))
		return false
	}
	for what, r := range map[string]*sweep.Result{"resumed campaign": resumed, "sweep.Run": flat} {
		var other bytes.Buffer
		if err := r.WriteJSON(&other); err != nil || !bytes.Equal(other.Bytes(), js.Bytes()) {
			b.fail(fmt.Sprintf("%s: %s Result differs from the campaign's", name, what))
			return false
		}
	}
	return true
}

// gridLayers accumulates the grid's per-layer timings across ops:
// per-call sums and counts by metric name, and the engine's and
// campaign's telemetry totals.
type gridLayers struct {
	sums                  map[string]float64
	counts                map[string]int
	trials, trialS, cellS float64
}

func newGridLayers() *gridLayers {
	return &gridLayers{sums: map[string]float64{}, counts: map[string]int{}}
}

// add records one timed call of a per-call metric.
func (lt *gridLayers) add(name string, d time.Duration) {
	lt.sums[name] += d.Seconds()
	lt.counts[name]++
}

// cells reconstructs every cell's host time from the campaign's OnCell
// completion times. Workers claim cells in Expand order and claim the
// next one right after checkpointing the last, so the first `workers`
// cells start with the campaign and cell k >= workers starts at the
// (k-workers)-th completion.
func (lt *gridLayers) cells(spec sweep.Spec, workers int, start time.Time, wall time.Duration, done map[int]time.Time, order []time.Time) {
	cls := sweep.Expand(spec)
	w := min(workers, len(cls))
	idle := time.Duration(w) * wall
	for k, c := range cls {
		from := start
		if k >= w {
			from = order[k-w]
		}
		d := done[k].Sub(from)
		idle -= d
		lt.add("campaign.cell_s."+metricKey(c.Exp.ID), d)
		lt.add("campaign.cell_s."+metricKey(c.PolicyName), d)
	}
	lt.add("campaign.idle_s", idle)
}

// engine folds the op's engine and campaign telemetry; the campaign's
// overhead is its cell seconds beyond the engine's trial seconds.
func (lt *gridLayers) engine(reg *obs.Registry) {
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "engine_trial_seconds":
			lt.trialS += s.Sum
			lt.trials += float64(s.Count)
		case "campaign_cell_seconds":
			lt.cellS += s.Sum
		}
	}
}

// artifactCalls times the checkpoint layer on the op's records: opening
// the log, checking the merged log's key set, and appending every
// record to a fresh log.
func (lt *gridLayers) artifactCalls(spec sweep.Spec, fp uint64, path, merged, scratch string) error {
	t0 := time.Now()
	l, err := artifact.Open(path, fp)
	lt.add("artifact.open_s", time.Since(t0))
	if err != nil {
		return err
	}
	l.Close()
	keys := make([]string, 0, 64)
	for _, c := range sweep.Expand(spec) {
		keys = append(keys, c.Key)
	}
	t0 = time.Now()
	_, err = artifact.CheckKeys(merged, fp, keys)
	lt.add("artifact.checkkeys_s", time.Since(t0))
	if err != nil {
		return err
	}
	src, err := artifact.Open(merged, fp)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := artifact.Create(scratch, fp)
	if err != nil {
		return err
	}
	defer os.Remove(scratch)
	for _, k := range src.Keys() {
		payload, _ := src.Get(k)
		t0 = time.Now()
		err := dst.Append(k, payload)
		lt.add("artifact.append_s", time.Since(t0))
		if err != nil {
			dst.Close()
			return err
		}
	}
	return dst.Close()
}

// report writes the per-layer metrics: per-call means, and per-op
// means of the engine and campaign totals. It also times NewHost for
// every cell config of the grid.
func (lt *gridLayers) report(b *bench, ops int) {
	for name, sum := range lt.sums {
		if n := lt.counts[name]; n > 0 {
			b.layer[name] = sum / float64(n)
		}
	}
	n := float64(ops)
	b.layer["engine.trials"] = lt.trials / n
	if lt.trials > 0 {
		b.layer["engine.trial_s"] = lt.trialS / lt.trials
	}
	b.layer["campaign.overhead_s"] = (lt.cellS - lt.trialS) / n

	cls := sweep.Expand(gridSpec(0))
	var hosts []float64
	for _, c := range cls {
		t0 := time.Now()
		hierarchy.NewHost(c.Config, c.Seed)
		hosts = append(hosts, time.Since(t0).Seconds())
	}
	b.layer["hierarchy.new_host_s"] = mean(hosts)
}
