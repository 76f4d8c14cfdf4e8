package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/clock"
	"repro/internal/dsp"
	"repro/internal/ec2m"
	"repro/internal/evset"
	"repro/internal/memory"
	"repro/internal/probe"
	"repro/internal/psd"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func init() {
	register("fig7", "Figure 7: PSD of target vs non-target SF set traces", Figure7)
	register("table6", "Table 6: PSD-based target-set identification (PageOffset & WholeSys)", Table6)
	register("fig9", "Figure 9: trace snippet with detected accesses vs nonce bits", Figure9)
	register("e2e", "§7.3: end-to-end cross-tenant nonce extraction", EndToEnd)
}

// victimCurve picks sect571r1-scale for full runs (571-bit nonces) and
// sect163 for scaled runs (162 ladder iterations per signing).
func victimCurve(o Options) *ec2m.Curve {
	if o.Full {
		return ec2m.Sect571()
	}
	return ec2m.Sect163()
}

// newAttackSession builds a cloud session with a victim on a standalone
// host (used for the shared training sessions built outside RunTrials).
func newAttackSession(o Options, seed uint64) *attack.Session {
	return attack.NewSession(cloudConfig(o), victimCurve(o), seed)
}

// pooledAttackSession builds a cloud session on the trial's pooled host.
func pooledAttackSession(o Options, t *Trial, seed uint64) *attack.Session {
	return attack.NewSessionOn(t.Host(cloudConfig(o), seed), victimCurve(o), seed)
}

// Figure7 captures one trace from the target SF set and one from a
// non-target set while the victim signs, and reports the PSD peaks at
// the expected base frequency and harmonics.
func Figure7(o Options) *Report {
	rep := &Report{
		ID:     "fig7",
		Title:  "PSD of target vs non-target traces (Cloud Run)",
		Header: []string{"trace", "accesses", "peak@f0/floor", "peak@2f0/floor", "peak@1.5f0/floor"},
		Paper: []string{
			"target: clear peaks at f0 ≈ 0.41 MHz and harmonics; non-target: no peaks at expected frequencies",
		},
	}
	samples := o.run(1, func(t *Trial) Sample {
		s := pooledAttackSession(o, t, t.Seed)
		p := psd.DefaultParams(s.V.ExpectedAccessPeriod())
		td := s.CollectTrainingData(p, 2, 2)
		if len(td.Target) == 0 || len(td.NonTarget) == 0 {
			return Sample{}
		}
		period := s.V.ExpectedAccessPeriod()
		f0 := 1.0 / period
		describe := func(tr *probe.Trace) []float64 {
			sig := dsp.BinTrace(timesU64(tr), uint64(tr.Start), uint64(tr.End), uint64(p.BinCycles))
			spec := dsp.Welch(sig, 1.0/float64(p.BinCycles))
			floor := spec.MedianPower()
			if floor <= 0 {
				floor = 1e-12
			}
			tol := f0 * 0.15
			return []float64{
				float64(len(tr.Times)),
				spec.PeakNear(f0, tol) / floor,
				spec.PeakNear(2*f0, tol) / floor,
				spec.PeakNear(1.5*f0, tol) / floor,
			}
		}
		return Sample{
			OK:     true,
			Value:  period,
			Series: [][]float64{describe(td.Target[0]), describe(td.NonTarget[0])},
		}
	}, "fig7")
	s := samples[0]
	if !s.OK {
		rep.Notes = append(rep.Notes, "trace collection failed")
		return rep
	}
	for i, name := range []string{"target", "non-target"} {
		d := s.Series[i]
		rep.Rows = append(rep.Rows, []string{
			name, fmt.Sprint(int(d[0])),
			fmt.Sprintf("%.1f", d[1]), fmt.Sprintf("%.1f", d[2]), fmt.Sprintf("%.1f", d[3]),
		})
	}
	period := s.Value
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("f0 = 1/%.0f cycles = %.2f MHz at 2 GHz", period, 2000/period),
		"shape to check: target peak@f0 and @2f0 well above floor; off-frequency 1.5·f0 near floor; non-target flat")
	return rep
}

func timesU64(tr *probe.Trace) []uint64 {
	out := make([]uint64, len(tr.Times))
	for i, t := range tr.Times {
		out[i] = uint64(t)
	}
	return out
}

// Table6 measures target-set identification: success rate, time to find
// the target, and scan rate, under PageOffset and WholeSys scanning.
func Table6(o Options) *Report {
	rep := &Report{
		ID:     "table6",
		Title:  "PSD target-set identification (Cloud Run)",
		Header: []string{"scenario", "succ", "avg time", "p95 time", "sets/s", "n"},
		Paper: []string{
			"PageOffset: 94.1% success, 6.1 s avg, 16.1 s p95, 831 sets/s (60 s timeout)",
			"WholeSys:   73.9% success, 179.7 s avg, 546.6 s p95, 762 sets/s (900 s timeout)",
		},
	}
	// Train classifiers once on a separate training host; the trained
	// scanner and extractor are read-only from then on, so the parallel
	// trials can share them.
	train := newAttackSession(o, o.Seed^0x7121)
	p := psd.DefaultParams(train.V.ExpectedAccessPeriod())
	rng := xrand.New(o.Seed ^ 0x9)
	scanner, td, _ := train.TrainScanner(p, rng)
	if scanner == nil {
		// An index-scrambling defense override (-defense randomize/scatter)
		// starves the training pool; report the failure instead of running
		// a scan with no classifier.
		rep.Notes = append(rep.Notes, "training failed: no monitorable training sets under the configured defense")
		return rep
	}
	ex := attack.TrainExtractor(train.V.IterCycles, td.Traces, td.Truth, rng)

	type scen struct {
		name    string
		trials  int
		timeout clock.Cycles
		whole   bool
	}
	scens := []scen{
		{"PageOffset", trials(o, 8), clock.FromMillis(60_000), false},
		{"WholeSys", maxInt(2, trials(o, 8)/3), clock.FromMillis(900_000), true},
	}
	for _, sc := range scens {
		samples := o.run(sc.trials, func(t *Trial) Sample {
			s := pooledAttackSession(o, t, t.Seed)
			sets := buildScanSets(s, sc.whole)
			if len(sets) == 0 {
				return Sample{Extra: []float64{0, 0}}
			}
			opt := attack.ScanOptions{Timeout: sc.timeout}
			if sc.whole {
				opt.VerifyByExtraction = true
				opt.Extractor = ex
			}
			res := s.ScanForTarget(sets, scanner, opt)
			return Sample{
				OK:    res.Found && res.Correct,
				Value: float64(res.Duration),
				Extra: []float64{float64(res.Scanned), res.Duration.Seconds()},
			}
		}, "table6", sc.name)
		var succ stats.Counter
		scanned, dur := 0.0, 0.0
		for _, s := range samples {
			succ.Record(s.OK)
			scanned += s.Extra[0]
			dur += s.Extra[1]
		}
		times := okValues(samples)
		rate := 0.0
		if dur > 0 {
			rate = scanned / dur
		}
		rep.Rows = append(rep.Rows, []string{
			sc.name, pct(succ.Rate()),
			sec(stats.Mean(times)), sec(stats.Percentile(times, 95)),
			fmt.Sprintf("%.0f", rate), fmt.Sprint(sc.trials),
		})
	}
	rep.Notes = append(rep.Notes,
		"success requires identifying the *correct* set (privileged check)",
		"shape to check: PageOffset succeeds faster and more often than WholeSys (de-synchronization)")
	return rep
}

// buildScanSets runs Step 1 for the scan experiments.
func buildScanSets(s *attack.Session, wholeSys bool) []*evset.EvictionSet {
	opt := evset.BulkOptions{Algo: evset.BinSearch{}, PerSet: evset.FilteredOptions()}
	if !wholeSys {
		return s.BuildEvictionSets(opt).Sets
	}
	cands := evset.NewCandidates(s.Env, evset.DefaultPoolSize(s.H.Config()), 0)
	return evset.BuildWholeSys(s.Env, cands, opt).Sets
}

// Figure9 prints a short annotated window of a captured trace: detected
// accesses against ground-truth iteration boundaries and nonce bits.
func Figure9(o Options) *Report {
	rep := &Report{
		ID:     "fig9",
		Title:  "Trace snippet: detections vs nonce bits (two accesses per 0-bit iteration, one per 1-bit)",
		Header: []string{"iter", "bit", "boundary(µs)", "detections in iteration (µs offsets)"},
		Paper:  []string{"Figure 9 shows iterations with bit 0 exhibiting a midpoint access; bits read directly off the trace"},
	}
	// Row text is built inside the trial; the per-trial slot keeps the
	// write race-free for any trial count, like the engine's own results.
	const fig9Trials = 1
	rowsByTrial := make([][][]string, fig9Trials)
	samples := o.run(fig9Trials, func(t *Trial) Sample {
		s := pooledAttackSession(o, t, t.Seed)
		lines := targetSetLines(s)
		if lines == nil {
			return Sample{}
		}
		m := probe.NewMonitor(s.Env, probe.Parallel, lines)
		rec := s.TriggerOneSigning()
		tr := m.Capture(rec.End - s.H.Clock().Now() + 20_000)

		var rows [][]string
		shown := 0
		for i := 0; i+1 < len(rec.IterStarts) && shown < 10; i++ {
			lo, hi := rec.IterStarts[i], rec.IterStarts[i+1]
			var offs []string
			for _, tt := range tr.Times {
				if tt >= lo && tt < hi {
					offs = append(offs, fmt.Sprintf("+%.1f", clock.Cycles(tt-lo).Micros()))
				}
			}
			if len(offs) == 0 {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprint(i), fmt.Sprint(rec.Bits[i]),
				fmt.Sprintf("%.1f", lo.Micros()), fmt.Sprint(offs),
			})
			shown++
		}
		rowsByTrial[t.Index] = rows
		return Sample{OK: true}
	}, "fig9")
	if !samples[0].OK {
		rep.Notes = append(rep.Notes, "no congruent lines found")
		return rep
	}
	rep.Rows = rowsByTrial[0]
	rep.Notes = append(rep.Notes, "shape to check: 0-bit iterations show a ~+2.4µs midpoint detection in addition to the boundary one")
	return rep
}

// targetSetLines resolves SFWays congruent lines for the victim's target
// set by privileged inspection (controlled-experiment setup).
func targetSetLines(s *attack.Session) []memory.VAddr {
	cands := evset.NewCandidates(s.Env, 2*evset.DefaultPoolSize(s.H.Config()), s.V.TargetOffset())
	var out []memory.VAddr
	for _, va := range cands.Addrs {
		if s.Env.Main.SetOf(va) == s.V.TargetSet() {
			out = append(out, va)
			if len(out) == s.H.Config().SFWays {
				return out
			}
		}
	}
	return nil
}

// EndToEnd runs the §7.3 protocol across several co-located pairs and
// reports the paper's headline metrics.
func EndToEnd(o Options) *Report {
	rep := &Report{
		ID:     "e2e",
		Title:  "End-to-end cross-tenant nonce extraction (Cloud Run)",
		Header: []string{"metric", "value"},
		Paper: []string{
			"47/52 hosts with signal; median 81% (avg 68%) of nonce bits; 3% bit error rate; ~19 s end-to-end",
		},
	}
	train := newAttackSession(o, o.Seed^0x7e2e)
	p := psd.DefaultParams(train.V.ExpectedAccessPeriod())
	rng := xrand.New(o.Seed ^ 0xe2)
	scanner, td, ts := train.TrainScanner(p, rng)
	if scanner == nil {
		rep.Notes = append(rep.Notes, "training failed: no monitorable training sets under the configured defense")
		return rep
	}
	ex := attack.TrainExtractor(train.V.IterCycles, td.Traces, td.Truth, rng)

	pairs := trials(o, 6)
	opt := attack.DefaultE2EOptions()
	opt.Traces = 10
	if !o.Full {
		opt.Traces = 5
	}
	samples := o.run(pairs, func(t *Trial) Sample {
		s := pooledAttackSession(o, t, t.Seed)
		res := s.RunEndToEnd(scanner, ex, opt)
		return Sample{
			OK:     res.SignalFound,
			Value:  float64(res.TotalTime),
			Series: [][]float64{res.Fractions, res.ErrorRates},
		}
	}, "e2e")
	signal := 0
	var fracs, errs, totals []float64
	for _, s := range samples {
		if s.OK {
			signal++
			fracs = append(fracs, s.Series[0]...)
			errs = append(errs, s.Series[1]...)
			totals = append(totals, s.Value)
		}
	}
	rep.Rows = append(rep.Rows,
		[]string{"co-located pairs", fmt.Sprint(pairs)},
		[]string{"pairs with signal", fmt.Sprintf("%d (%.0f%%)", signal, 100*float64(signal)/float64(pairs))},
		[]string{"median nonce bits extracted", pct(stats.Median(fracs))},
		[]string{"average nonce bits extracted", pct(stats.Mean(fracs))},
		[]string{"average bit error rate", pct(stats.Mean(errs))},
		[]string{"average end-to-end time", sec(stats.Mean(totals))},
		[]string{"classifier validation (FN/FP)", fmt.Sprintf("%.2f%% / %.2f%%", 100*ts.FalseNegative, 100*ts.FalsePositive)},
	)
	rep.Notes = append(rep.Notes,
		"shape to check: most pairs yield a signal; median extraction near the paper's 81%; low bit error rate")
	return rep
}
