package experiments

import (
	"fmt"

	"repro/internal/cache"

	"repro/internal/clock"
	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/memory"
	"repro/internal/probe"
	"repro/internal/stats"
)

func init() {
	register("table5", "Table 5: prime and probe latencies of PS-Flush, PS-Alt and Parallel Probing", Table5)
	register("fig6", "Figure 6: covert-channel detection rate vs sender access interval", Figure6)
	register("abl-policy", "Ablation: Parallel Probing detection rate across replacement policies", AblationPolicy)
	register("abl-noise", "Ablation: detection rate and construction success across noise rates", AblationNoise)
}

// CovertSetup builds one attacker environment plus the sets a covert
// experiment needs — the receiver's eviction set, a disjoint alt set,
// and a congruent sender line — using privileged congruence for the
// alt/sender lines (sender and receiver agree on the target set, §6.1).
// Exported so the covert scenarios (internal/scenario) share the exact
// setup of the probe/detect cell and Table 5 / Figure 6 runners.
func CovertSetup(t *Trial, cfg hierarchy.Config, seed uint64) (*evset.Env, []memory.VAddr, []memory.VAddr, memory.PAddr, bool) {
	h := t.Host(cfg, seed)
	e := evset.NewEnv(h, seed^0xc0173)
	cands := evset.NewCandidates(e, 2*evset.DefaultPoolSize(cfg), 0)
	res := evset.BuildSF(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions())
	if !res.OK {
		return nil, nil, nil, 0, false
	}
	target := e.Main.SetOf(res.Set.Ta)
	used := map[memory.VAddr]bool{}
	for _, va := range res.Set.Lines {
		used[va] = true
	}
	var extra []memory.VAddr
	for _, va := range cands.Addrs {
		if !used[va] && va != res.Set.Ta && e.Main.SetOf(va) == target {
			extra = append(extra, va)
		}
	}
	ways := cfg.SFWays
	if len(extra) < ways+1 {
		return nil, nil, nil, 0, false
	}
	return e, res.Set.Lines, extra[:ways], e.Main.Translate(extra[ways]), true
}

// Table5 reports the prime and probe latencies of the three strategies
// on the Cloud Run host.
func Table5(o Options) *Report {
	rep := &Report{
		ID:     "table5",
		Title:  "Prime and probe latencies (Cloud Run, cycles)",
		Header: []string{"strategy", "prime mean", "prime std", "probe mean", "probe std"},
		Paper: []string{
			"PS-Flush prime 6024±990 | PS-Alt prime 2777±735 | Parallel prime 1121±448",
			"PS probe 94±0.7 | Parallel probe 118±0.7",
		},
	}
	reps := trials(o, 6)
	strats := []probe.Strategy{probe.PSFlush, probe.PSAlt, probe.Parallel}
	cfg := cloudConfig(o)
	samples := o.run(len(strats)*reps, func(t *Trial) Sample {
		strat := strats[t.Index/reps]
		e, lines, alt, sender, ok := CovertSetup(t, cfg, t.Seed)
		if !ok {
			return Sample{}
		}
		m := probe.NewMonitor(e, strat, lines).WithAlt(alt)
		res := probe.RunCovertChannel(e, m, 2, sender, 50000, 60)
		return Sample{OK: true, Series: [][]float64{res.PrimeLatency, res.ProbeLatency}}
	}, "table5")
	for si, strat := range strats {
		cs := samples[si*reps : (si+1)*reps]
		prime := concatSeries(cs, 0)
		prob := concatSeries(cs, 1)
		rep.Rows = append(rep.Rows, []string{
			strat.String(),
			fmt.Sprintf("%.0f", stats.Mean(prime)), fmt.Sprintf("%.0f", stats.Stddev(prime)),
			fmt.Sprintf("%.0f", stats.Mean(prob)), fmt.Sprintf("%.0f", stats.Stddev(prob)),
		})
	}
	rep.Notes = append(rep.Notes, "shape to check: prime PS-Flush > PS-Alt > Parallel; probe latencies within ~25 cycles of each other")
	return rep
}

// Figure6 measures the covert-channel detection rate of each strategy
// across sender access intervals.
func Figure6(o Options) *Report {
	rep := &Report{
		ID:     "fig6",
		Title:  "Detection rate vs access interval (Cloud Run)",
		Header: []string{"interval", "Parallel", "PS-Flush", "PS-Alt"},
		Paper: []string{
			"2k cycles: Parallel 84.1%, PS-Flush 15.4%, PS-Alt 6.0%;  100k: 91.1%, 82.1%, 36.9%",
		},
	}
	intervals := []clock.Cycles{1000, 2000, 5000, 7000, 10000, 50000, 100000}
	strats := []probe.Strategy{probe.Parallel, probe.PSFlush, probe.PSAlt}
	count := trials(o, 300)
	reps := 3
	cfg := cloudConfig(o)
	samples := o.run(len(intervals)*len(strats)*reps, func(t *Trial) Sample {
		cellIdx := t.Index / reps
		iv := intervals[cellIdx/len(strats)]
		strat := strats[cellIdx%len(strats)]
		e, lines, alt, sender, ok := CovertSetup(t, cfg, t.Seed)
		if !ok {
			return Sample{}
		}
		m := probe.NewMonitor(e, strat, lines).WithAlt(alt)
		res := probe.RunCovertChannel(e, m, 2, sender, iv, count)
		return Sample{OK: true, Value: res.DetectionRate}
	}, "fig6")
	for ii, iv := range intervals {
		row := []string{fmt.Sprint(iv)}
		for si := range strats {
			ci := ii*len(strats) + si
			cs := samples[ci*reps : (ci+1)*reps]
			row = append(row, pct(stats.Mean(okValues(cs))))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes, "shape to check: Parallel dominates at short intervals (prime latency bound) and stays highest at 100k")
	return rep
}

// AblationPolicy re-runs the covert channel with different SF/LLC
// replacement policies: the paper argues Parallel Probing needs no
// replacement-state preparation and so tolerates unknown policies (§6.1).
func AblationPolicy(o Options) *Report {
	rep := &Report{
		ID:     "abl-policy",
		Title:  "Parallel Probing detection rate across replacement policies (5k-cycle interval, Cloud Run)",
		Header: []string{"policy", "Parallel", "PS-Flush"},
	}
	pols := []struct {
		name string
		kind cache.PolicyKind
	}{{"LRU", cache.TrueLRU}, {"SRRIP", cache.SRRIP}, {"QLRU", cache.QLRU}}
	strats := []probe.Strategy{probe.Parallel, probe.PSFlush}
	const reps = 3
	count := trials(o, 250)
	samples := o.run(len(pols)*len(strats)*reps, func(t *Trial) Sample {
		cellIdx := t.Index / reps
		p := pols[cellIdx/len(strats)]
		strat := strats[cellIdx%len(strats)]
		cfg := cloudConfig(o)
		cfg.SFPolicy = p.kind
		e, lines, alt, sender, ok := CovertSetup(t, cfg, t.Seed)
		if !ok {
			return Sample{}
		}
		m := probe.NewMonitor(e, strat, lines).WithAlt(alt)
		res := probe.RunCovertChannel(e, m, 2, sender, 5000, count)
		return Sample{OK: true, Value: res.DetectionRate}
	}, "abl-policy")
	for pi, p := range pols {
		row := []string{p.name}
		for si := range strats {
			ci := pi*len(strats) + si
			cs := samples[ci*reps : (ci+1)*reps]
			row = append(row, pct(stats.Mean(okValues(cs))))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"design-choice ablation (DESIGN.md §4): Parallel Probing's advantage should persist across policies",
		"0% rows mean eviction-set construction itself failed under that policy: the scan-resistant QLRU model",
		"defeats single-traversal TestEviction, which is why real tooling re-traverses against such caches")
	return rep
}

// AblationNoise sweeps the background access rate between the local and
// cloud levels and reports BinS construction success and Parallel
// detection rate.
func AblationNoise(o Options) *Report {
	rep := &Report{
		ID:     "abl-noise",
		Title:  "Noise-rate sweep: BinS+filter construction success and Parallel detection rate",
		Header: []string{"noise acc/ms/set", "BinS succ", "detect@10k"},
	}
	noiseRates := []float64{0.29, 1, 3, 6, 11.5, 23, 46}
	n := trials(o, 8)
	const covertReps = 2
	count := trials(o, 200)
	perRate := n + covertReps // n construction trials then covertReps detection trials
	cfgFor := func(rate float64) hierarchy.Config {
		return localConfig(o).WithNoiseRate(rate * ConstructionNoiseScale(localConfig(o), true))
	}
	samples := o.run(len(noiseRates)*perRate, func(t *Trial) Sample {
		rate := noiseRates[t.Index/perRate]
		cfg := cfgFor(rate)
		if t.Index%perRate < n {
			// Construction trial.
			h := t.Host(cfg, t.Seed)
			e := evset.NewEnv(h, t.Seed^0xab1)
			cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
			res, _ := evset.BuildSingle(e, cands.Addrs[0], cands, evset.BulkOptions{Algo: evset.BinSearch{}, PerSet: evset.FilteredOptions()})
			ok := res.OK && res.Set != nil && res.Set.Verified(e.Main, cfg.SFWays)
			return Sample{OK: ok}
		}
		// Detection trial.
		e, lines, alt, sender, ok := CovertSetup(t, cfg, t.Seed)
		if !ok {
			return Sample{}
		}
		m := probe.NewMonitor(e, probe.Parallel, lines).WithAlt(alt)
		res := probe.RunCovertChannel(e, m, 2, sender, 10000, count)
		return Sample{OK: true, Value: res.DetectionRate}
	}, "abl-noise")
	for ri, rate := range noiseRates {
		rs := samples[ri*perRate : (ri+1)*perRate]
		cons := rs[:n]
		det := rs[n:]
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.2f", rate), pct(successRate(cons)), pct(stats.Mean(okValues(det))),
		})
	}
	return rep
}
