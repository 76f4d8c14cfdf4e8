package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/ec2m"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/psd"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

const keyRecoveryID = "e2e/keyrecovery"

// phases are the keyrecovery pipeline steps, in order; "unattributed"
// is simulated time the pipeline spent outside a marked step.
var phases = []string{"train", "build", "scan", "extract", "lattice", "unattributed"}

// runKeyRecovery runs single-trial e2e/keyrecovery scenarios on one
// worker, one op per corpus seed, and checks each Report's JSON.
func runKeyRecovery(b *bench) error {
	sc, ok := scenario.Lookup(keyRecoveryID)
	if !ok {
		return fmt.Errorf("scenario %s is not registered", keyRecoveryID)
	}
	// Set-up: the scenario's config, validated, and the first host with
	// an attacker and victim co-located on it.
	err := b.repeatSetup(func(bool) error {
		cfg := sc.Config()
		if err := cfg.Validate(); err != nil {
			return err
		}
		attack.NewSessionOn(hierarchy.NewHost(cfg, 1), ec2m.Sect163(), 1)
		return nil
	})
	if err != nil {
		return err
	}

	var (
		phaseHost = map[string]float64{}
		phaseSim  = map[string]float64{}
		collect   []float64
		scanFit   []float64
		exFit     []float64
		newHost   []float64
		attempts  int
		keys      int
	)
	stop := b.sampleDuring()
	for _, seed := range b.ops {
		var sink *obs.Sink
		if b.opt.trace {
			sink = &obs.Sink{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
		}
		var rep *scenario.Report
		name := fmt.Sprintf("keyrecovery seed %d", seed)
		d, ok := b.timeOp(name, func() error {
			var err error
			rep, err = scenario.RunWithObs(context.Background(), keyRecoveryID, nil, nil, 1, 1, seed, sink)
			return err
		})
		if !ok {
			continue
		}
		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			b.fail(fmt.Sprintf("%s: encoding report: %v", name, err))
			continue
		}
		if !b.checkOp(name, map[string]string{fmt.Sprint(seed): digest(js.Bytes())}) {
			continue
		}
		for _, o := range rep.Outcomes {
			b.trials++
			if o.Success {
				b.trialsOK++
				b.simS = append(b.simS, o.TotalCycles.Seconds())
			}
			attempts += o.LatticeAttempts
			if o.KeyRecovered {
				keys++
			}
		}
		if !b.opt.trace {
			continue
		}
		spanHost := 0.0
		for _, s := range sink.Tracer.Spans() {
			if s.Cat != "phase" {
				continue
			}
			phaseHost[s.Name] += s.Wall.Seconds()
			phaseSim[s.Name] += s.Dur.Seconds()
			spanHost += s.Wall.Seconds()
		}
		// The op's host time outside every phase span (engine, host
		// reset, report assembly) is the unattributed host share.
		phaseHost["unattributed"] += d.Seconds() - spanHost
		c, sf, ef, nh := trainLayers(sc, seed)
		collect = append(collect, c)
		scanFit = append(scanFit, sf)
		exFit = append(exFit, ef)
		newHost = append(newHost, nh)
	}
	stop()

	if b.opt.trace {
		overhead, err := traceOverhead(func(sink *obs.Sink) error {
			_, err := scenario.RunWithObs(context.Background(), keyRecoveryID, nil, nil, 1, 1, b.ops[0], sink)
			return err
		})
		if err != nil {
			return err
		}
		n := float64(len(b.ops))
		for _, ph := range phases {
			b.layer["phase."+ph+".host_s"] = phaseHost[ph] / n
			b.layer["phase."+ph+".sim_s"] = phaseSim[ph] / n
		}
		b.layer["phase.unattributed.host_frac"] = phaseHost["unattributed"] / sum(b.loopS)
		b.layer["train.collect_s"] = mean(collect)
		b.layer["train.scanner_fit_s"] = mean(scanFit)
		b.layer["train.extractor_fit_s"] = mean(exFit)
		b.layer["train.extractor_fit_frac"] = mean(exFit) / mean(b.opS)
		b.layer["hierarchy.new_host_s"] = mean(newHost)
		b.layer["lattice.attempts"] = float64(attempts) / n
		if attempts > 0 {
			b.layer["lattice.keys_per_attempt"] = float64(keys) / float64(attempts)
		}
		b.layer["trace.overhead_frac"] = overhead
	}
	return nil
}

// trainLayers repeats the trial's training phase for the op at seed —
// same host seed, same calls, same rng — timing each layer call:
// training-data collection (attack), the PSD scanner fit (psd, SVM) and
// the extractor fit (attack, random forest). It also times the
// hierarchy.NewHost the trial's host pool performs.
func trainLayers(sc scenario.Scenario, seed uint64) (collect, scannerFit, extractorFit, newHost float64) {
	ts := xrand.Stream(experiments.SubSeed(seed, "scenario", sc.ID), 0)
	t0 := time.Now()
	h := hierarchy.NewHost(sc.Config(), ts)
	newHost = time.Since(t0).Seconds()
	s := attack.NewSessionOn(h, ec2m.Sect163(), ts)
	p := psd.DefaultParams(s.V.ExpectedAccessPeriod())
	t0 = time.Now()
	td := s.CollectTrainingData(p, 12, 24)
	collect = time.Since(t0).Seconds()
	if len(td.Target) == 0 || len(td.NonTarget) == 0 {
		return collect, 0, 0, newHost
	}
	rng := xrand.New(ts ^ 0x7a1)
	t0 = time.Now()
	psd.TrainScanner(p, td.Target, td.NonTarget, rng)
	scannerFit = time.Since(t0).Seconds()
	t0 = time.Now()
	attack.TrainExtractor(s.V.IterCycles, td.Traces, td.Truth, rng)
	extractorFit = time.Since(t0).Seconds()
	return collect, scannerFit, extractorFit, newHost
}
