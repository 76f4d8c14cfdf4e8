package experiments

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func init() {
	register("table3", "Table 3: existing pruning algorithms without candidate filtering, local vs Cloud Run", Table3)
	register("fig2", "Figure 2: CDF of background inter-access times per LLC set", Figure2)
	register("fig3", "Figure 3: parallel vs sequential TestEviction duration vs candidate count", Figure3)
	register("table4", "Table 4: SingleSet/PageOffset/WholeSys with candidate filtering", Table4)
	register("filter", "§5.3.1: candidate-filtering overhead and amortization", FilterOverhead)
	register("icelake", "§5.3.2: Skylake-SP vs Ice Lake-SP associativity scaling", IceLake)
}

// table3Algos are the state-of-the-art baselines evaluated in Table 3.
func table3Algos() []evset.Pruner {
	return []evset.Pruner{
		evset.GroupTesting{EarlyTermination: true},
		evset.GroupTesting{},
		evset.PrimeScope{},
		evset.PrimeScope{Recharge: true},
	}
}

// singleSetTrial builds one SF eviction set without candidate filtering
// (the Table 3 protocol) and returns success and duration.
func singleSetTrial(t *Trial, cfg hierarchy.Config, algo evset.Pruner, seed uint64, opts evset.Options) (bool, clock.Cycles) {
	h := t.Host(cfg, seed)
	e := evset.NewEnv(h, seed^0xe0f)
	cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
	ta := cands.Addrs[0]
	res := evset.BuildSF(e, algo, ta, cands.Addrs[1:], opts)
	ok := res.OK && res.Set.Verified(e.Main, cfg.SFWays)
	return ok, res.Duration
}

// Table3 measures the success rate and execution time of Gt, GtOp, Ps
// and PsOp without candidate filtering, in the quiescent local and Cloud
// Run environments.
func Table3(o Options) *Report {
	rep := &Report{
		ID:     "table3",
		Title:  "Eviction-set construction without filtering (success rate, avg/stddev/median time)",
		Header: []string{"env", "algo", "succ", "avg", "stddev", "median", "n"},
		Paper: []string{
			"local:  Gt 97.0% 32.9ms | GtOp 98.8% 21.1ms | Ps 98.5% 55.9ms | PsOp 98.2% 54.9ms",
			"cloud:  Gt 39.4% 714ms  | GtOp 56.0% 512ms  | Ps 3.2% 580ms   | PsOp 6.9% 572ms",
		},
	}
	n := trials(o, 20)
	if o.Full {
		n = trials(o, 8)
	}
	type cell struct {
		env  string
		cfg  hierarchy.Config
		algo evset.Pruner
	}
	var cells []cell
	for _, env := range []struct {
		name string
		cfg  hierarchy.Config
	}{{"local", localConstructionConfig(o, false)}, {"cloud", cloudConstructionConfig(o, false)}} {
		for _, algo := range table3Algos() {
			cells = append(cells, cell{env.name, env.cfg, algo})
		}
	}
	samples := o.run(len(cells)*n, func(t *Trial) Sample {
		c := cells[t.Index/n]
		ok, d := singleSetTrial(t, c.cfg, c.algo, t.Seed, evset.DefaultOptions())
		return Sample{OK: ok, Value: float64(d)}
	}, "table3")
	for ci, c := range cells {
		cs := samples[ci*n : (ci+1)*n]
		s := stats.Summarize(sampleValues(cs))
		rep.Rows = append(rep.Rows, []string{
			c.env, c.algo.Name(), pct(successRate(cs)),
			ms(s.Mean), ms(s.Stddev), ms(s.Median), fmt.Sprint(n),
		})
	}
	rep.Notes = append(rep.Notes,
		"shape to check: every algorithm degrades on cloud; Ps/PsOp collapse (sequential TestEviction); GtOp beats Gt")
	return rep
}

// Figure2 reproduces the background-access CDF: a random SF set is
// monitored with Parallel Probing and the gaps between detected
// background accesses are collected.
func Figure2(o Options) *Report {
	rep := &Report{
		ID:     "fig2",
		Title:  "CDF of time between background accesses to one LLC set",
		Header: []string{"env", "rate/ms", "p10", "p50", "p90", "gaps"},
		Paper: []string{
			"Cloud Run: 11.5 accesses/ms/set;  quiescent local: 0.29 accesses/ms/set",
		},
	}
	envs := []struct {
		name string
		cfg  hierarchy.Config
	}{{"local", localConfig(o)}, {"cloud", cloudConfig(o)}}
	samples := o.run(len(envs), func(t *Trial) Sample {
		gaps := collectGaps(t, envs[t.Index].cfg, t.Seed, trials(o, 1000))
		return Sample{Series: [][]float64{gaps}}
	}, "fig2")
	for i, env := range envs {
		gaps := samples[i].Series[0]
		if len(gaps) < 2 {
			rep.Rows = append(rep.Rows, []string{env.name, "~0", "-", "-", "-", fmt.Sprint(len(gaps))})
			continue
		}
		mean := stats.Mean(gaps)
		rate := 2e6 / mean // accesses per ms of virtual time
		rep.Rows = append(rep.Rows, []string{
			env.name, fmt.Sprintf("%.2f", rate),
			us(stats.Percentile(gaps, 10)), us(stats.Percentile(gaps, 50)), us(stats.Percentile(gaps, 90)),
			fmt.Sprint(len(gaps)),
		})
	}
	rep.Notes = append(rep.Notes, "rates are recovered from the Prime+Probe gap measurements, as in the paper's Experiment 1")
	return rep
}

func collectGaps(t *Trial, cfg hierarchy.Config, seed uint64, want int) []float64 {
	h := t.Host(cfg, seed)
	e := evset.NewEnv(h, seed^0x9a9)
	cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
	res := evset.BuildSF(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions())
	if !res.OK {
		return nil
	}
	m := probe.NewMonitor(e, probe.Parallel, res.Set.Lines)
	var gaps []float64
	var last clock.Cycles
	budget := clock.Cycles(800_000_000) // at most 0.4 s of virtual time
	deadline := h.Clock().Now() + budget
	m.Prime()
	for len(gaps) < want && h.Clock().Now() < deadline {
		if m.Probe() {
			now := h.Clock().Now()
			if last != 0 {
				gaps = append(gaps, float64(now-last))
			}
			last = now
			m.Prime()
		}
	}
	return gaps
}

// Figure3 measures TestEviction's execution time for the parallel and
// sequential implementations across candidate-set sizes U..11U. Each
// size runs as one trial on its own host, so sizes measure concurrently.
func Figure3(o Options) *Report {
	rep := &Report{
		ID:     "fig3",
		Title:  "TestEviction duration vs candidate count (Cloud Run)",
		Header: []string{"candidates", "parallel", "sequential", "ratio"},
		Paper: []string{
			"11·U candidates: parallel ≈ 134.8 µs, sequential ≈ 4.6 ms (~34x)",
		},
	}
	cfg := cloudConstructionConfig(o, false)
	u := cfg.LLCUncertainty()
	mults := []int{1, 3, 5, 7, 9, 11}
	reps := trials(o, 30)
	samples := o.run(len(mults), func(t *Trial) Sample {
		h := t.Host(cfg, t.Seed)
		e := evset.NewEnv(h, t.Seed^0xf13)
		pool := evset.NewCandidates(e, 11*u+1, 0)
		ta := pool.Addrs[0]
		nc := mults[t.Index] * u
		var par, seq []float64
		for i := 0; i < reps; i++ {
			t0 := h.Clock().Now()
			e.TestEviction(evset.TargetLLC, ta, pool.Addrs[1:], nc, true)
			par = append(par, float64(h.Clock().Now()-t0))
		}
		for i := 0; i < maxInt(1, reps/4); i++ {
			t0 := h.Clock().Now()
			e.TestEviction(evset.TargetLLC, ta, pool.Addrs[1:], nc, false)
			seq = append(seq, float64(h.Clock().Now()-t0))
		}
		return Sample{Series: [][]float64{par, seq}}
	}, "fig3")
	for i, mult := range mults {
		p := stats.Mean(samples[i].Series[0])
		s := stats.Mean(samples[i].Series[1])
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d (%dU)", mult*u, mult), us(p), us(s), fmt.Sprintf("%.1fx", s/p),
		})
	}
	rep.Notes = append(rep.Notes, "shape to check: order-of-magnitude gap, both growing with N")
	return rep
}

// table4Algos are the algorithms of Table 4 (all with filtering; PsBst is
// the better Prime+Scope variant).
func table4Algos() []evset.Pruner {
	return []evset.Pruner{
		evset.GroupTesting{EarlyTermination: true},
		evset.GroupTesting{},
		evset.PrimeScope{Recharge: true}, // PsBst
		evset.BinSearch{},
	}
}

func table4Name(p evset.Pruner) string {
	if p.Name() == "PsOp" {
		return "PsBst"
	}
	return p.Name()
}

// Table4 evaluates the paper's optimizations: candidate filtering plus
// the binary-search pruner, across the SingleSet, PageOffset and
// WholeSys scenarios in both environments.
func Table4(o Options) *Report {
	rep := &Report{
		ID:     "table4",
		Title:  "Eviction-set construction with L2 candidate filtering",
		Header: []string{"env", "scenario", "algo", "succ", "avg", "median", "n"},
		Paper: []string{
			"cloud SingleSet:  Gt 96.7% 28.8ms | GtOp 97.7% 27.2ms | PsBst 97.2% 33.2ms | BinS 98.1% 26.6ms",
			"cloud PageOffset: Gt 95.6% 5.51s  | GtOp 97.4% 3.95s  | PsBst 98.4% 4.51s  | BinS 98.0% 2.87s",
			"cloud WholeSys:   Gt 88.1% 301s   | GtOp 90.5% 213s   | PsBst 91.7% 244s   | BinS 92.6% 142s",
		},
	}
	type scen struct {
		name   string
		trials int
	}
	scens := []scen{{"SingleSet", trials(o, 12)}, {"PageOffset", 3}, {"WholeSys", 1}}
	if o.Full {
		scens = []scen{{"SingleSet", trials(o, 6)}, {"PageOffset", 1}}
		rep.Notes = append(rep.Notes, "full-scale WholeSys (57,344 sets) is hours of simulation; run the scaled default for the WholeSys row")
	}
	envs := []struct {
		name string
		cfg  hierarchy.Config
	}{{"local", localConstructionConfig(o, true)}, {"cloud", cloudConstructionConfig(o, true)}}

	type cell struct {
		env      string
		cfg      hierarchy.Config
		scenario string
		algo     evset.Pruner
		trials   int
	}
	var cells []cell
	var jobCell []int // flat trial index -> cell index
	for _, env := range envs {
		for _, sc := range scens {
			for _, algo := range table4Algos() {
				ci := len(cells)
				cells = append(cells, cell{env.name, env.cfg, sc.name, algo, sc.trials})
				for i := 0; i < sc.trials; i++ {
					jobCell = append(jobCell, ci)
				}
			}
		}
	}
	samples := o.run(len(jobCell), func(t *Trial) Sample {
		c := cells[jobCell[t.Index]]
		rate, d := table4Trial(t, c.cfg, c.algo, c.scenario, t.Seed)
		return Sample{Value: float64(d), Extra: []float64{rate}}
	}, "table4")
	off := 0
	for _, c := range cells {
		cs := samples[off : off+c.trials]
		off += c.trials
		var rates []float64
		for _, s := range cs {
			rates = append(rates, s.Extra[0])
		}
		s := stats.Summarize(sampleValues(cs))
		rep.Rows = append(rep.Rows, []string{
			c.env, c.scenario, table4Name(c.algo), pct(stats.Mean(rates)),
			fmtDur(s.Mean), fmtDur(s.Median), fmt.Sprint(c.trials),
		})
	}
	rep.Notes = append(rep.Notes,
		"shape to check: filtering slashes times vs table3; BinS fastest in bulk scenarios; success stays high on cloud")
	return rep
}

// table4Trial runs one scenario trial and returns (success rate, time).
func table4Trial(t *Trial, cfg hierarchy.Config, algo evset.Pruner, scenario string, seed uint64) (float64, clock.Cycles) {
	h := t.Host(cfg, seed)
	e := evset.NewEnv(h, seed^0x4b1d)
	opt := evset.BulkOptions{Algo: algo, PerSet: evset.FilteredOptions()}
	rng := xrand.New(seed ^ 0x0ff)
	offset := uint64(rng.Intn(64)) * 64
	cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), offset)
	switch scenario {
	case "SingleSet":
		res, _ := evset.BuildSingle(e, cands.Addrs[0], cands, opt)
		ok := 0.0
		if res.OK && res.Set != nil && res.Set.Verified(e.Main, cfg.SFWays) {
			ok = 1
		}
		return ok, res.Duration
	case "PageOffset":
		res := evset.BuildPageOffset(e, cands, opt)
		want := cfg.SetsAtPageOffset()
		return float64(res.UniqueVerified(e.Main, cfg.SFWays)) / float64(want), res.Duration
	case "WholeSys":
		base := cands
		if offset != 0 {
			base = cands.AtOffset(0)
		}
		// Sample 8 of the 64 line offsets and extrapolate: each offset's
		// workload is iid (the δ-shift reuses the same filtered groups),
		// so the sampled success rate and 8x the sampled time estimate
		// the full run, which the -full flag executes exactly.
		const sampled = 8
		opt.OffsetLimit = sampled
		res := evset.BuildWholeSys(e, base, opt)
		want := cfg.TotalLLCSets() * sampled / 64
		return float64(res.UniqueVerified(e.Main, cfg.SFWays)) / float64(want),
			res.Duration * (64 / sampled)
	default:
		panic("unknown scenario " + scenario)
	}
}

// FilterOverhead measures §5.3.1: the cost of one candidate-filtering
// execution and its amortization across PageOffset and WholeSys.
func FilterOverhead(o Options) *Report {
	rep := &Report{
		ID:     "filter",
		Title:  "Candidate filtering overhead and amortization (Cloud Run)",
		Header: []string{"metric", "value"},
		Paper: []string{
			"one filtering ≈ 22.3 ms; PageOffset needs U_L2=16 executions (~435 ms of 2.87 s); WholeSys reuses them via δ-shifts",
		},
	}
	cfg := cloudConstructionConfig(o, true)
	samples := o.run(1, func(t *Trial) Sample {
		h := t.Host(cfg, t.Seed)
		e := evset.NewEnv(h, t.Seed^0x71f)
		cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)

		t0 := h.Clock().Now()
		l2set, err := evset.BuildL2(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.FilteredOptions())
		if err != nil {
			return Sample{}
		}
		members := evset.FilterByL2(e, l2set, cands.Addrs[1:])
		oneFilter := float64(h.Clock().Now() - t0)

		groups, fstats := evset.PartitionByL2(e, cands.Addrs, evset.FilteredOptions())
		keep := 0
		for _, g := range groups {
			keep += len(g.Members)
		}
		return Sample{OK: true, Extra: []float64{
			oneFilter,
			float64(len(members)) / float64(len(cands.Addrs)),
			float64(fstats.Groups),
			float64(fstats.Duration),
			float64(keep),
		}}
	}, "filter")
	s := samples[0]
	if !s.OK {
		rep.Rows = append(rep.Rows, []string{"one filtering", "L2 set construction failed"})
		return rep
	}
	rep.Rows = append(rep.Rows,
		[]string{"one filtering (build L2 set + filter pool)", ms(s.Extra[0])},
		[]string{"filtered pool fraction", fmt.Sprintf("%.1f%% (expect ~%.1f%%)", 100*s.Extra[1], 100.0/float64(cfg.L2Uncertainty()))},
		[]string{fmt.Sprintf("full partition (%d groups = U_L2)", int(s.Extra[2])), ms(s.Extra[3])},
		[]string{"WholeSys filtering executions", fmt.Sprintf("%d (δ-shift reuse across 64 offsets)", int(s.Extra[2]))},
	)
	return rep
}

// IceLake compares single-set construction on Skylake-SP vs Ice Lake-SP
// (§5.3.2): the Gt/BinS ratio grows with associativity.
func IceLake(o Options) *Report {
	rep := &Report{
		ID:     "icelake",
		Title:  "Associativity scaling: quiet Skylake-SP (12-way SF/16-way L2) vs Ice Lake-SP (16-way SF/20-way L2)",
		Header: []string{"machine", "target", "algo", "avg time", "ratio vs BinS", "n"},
		Paper: []string{
			"SF:  SKX Gt 2.23ms GtOp 1.77ms BinS 1.17ms (Gt/BinS 1.91) | ICX Gt 3.81ms GtOp 3.07ms BinS 1.68ms (2.27)",
			"L2:  SKX Gt 2.49ms GtOp 1.90ms BinS 1.33ms (1.87)         | ICX Gt 14.48ms GtOp 8.16ms BinS 2.28ms (6.35)",
		},
	}
	// The machine configs go through o.tenants like localConfig/
	// cloudConfig do, so a -tenants override reaches this runner too.
	machines := []struct {
		name string
		cfg  hierarchy.Config
	}{
		{"Skylake-SP", o.tenants(hierarchy.SkylakeSP(4).WithQuiescentNoise())},
		{"Ice Lake-SP", o.tenants(hierarchy.IceLakeSP(4).WithQuiescentNoise())},
	}
	if o.Full {
		machines[0].cfg = o.tenants(hierarchy.SkylakeSP(22).WithQuiescentNoise())
		machines[1].cfg = o.tenants(hierarchy.IceLakeSP(26).WithQuiescentNoise())
	}
	algos := []evset.Pruner{evset.GroupTesting{EarlyTermination: true}, evset.GroupTesting{}, evset.BinSearch{}}
	n := trials(o, 10)
	type cell struct {
		mach   string
		cfg    hierarchy.Config
		target string
		algo   evset.Pruner
	}
	var cells []cell
	for _, mach := range machines {
		for _, target := range []string{"SF", "L2"} {
			for _, algo := range algos {
				cells = append(cells, cell{mach.name, mach.cfg, target, algo})
			}
		}
	}
	samples := o.run(len(cells)*n, func(t *Trial) Sample {
		c := cells[t.Index/n]
		d, ok := iceLakeTrial(t, c.cfg, c.algo, c.target, t.Seed)
		return Sample{OK: ok, Value: float64(d)}
	}, "icelake")
	for ci := 0; ci < len(cells); ci += len(algos) {
		means := map[string]float64{}
		for ai, algo := range algos {
			cs := samples[(ci+ai)*n : (ci+ai+1)*n]
			means[algo.Name()] = stats.Mean(okValues(cs))
		}
		for ai, algo := range algos {
			c := cells[ci+ai]
			ratio := means[algo.Name()] / means["BinS"]
			rep.Rows = append(rep.Rows, []string{
				c.mach, c.target, algo.Name(), ms(means[algo.Name()]),
				fmt.Sprintf("%.2f", ratio), fmt.Sprint(n),
			})
		}
	}
	rep.Notes = append(rep.Notes, "shape to check: Gt/BinS and GtOp/BinS ratios grow from Skylake-SP to Ice Lake-SP, most strongly for the L2")
	return rep
}

// iceLakeTrial times a single filtered SF or L2 eviction-set pruning.
func iceLakeTrial(t *Trial, cfg hierarchy.Config, algo evset.Pruner, target string, seed uint64) (clock.Cycles, bool) {
	h := t.Host(cfg, seed)
	e := evset.NewEnv(h, seed^0x1ce)
	cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
	ta := cands.Addrs[0]
	if target == "L2" {
		t0 := h.Clock().Now()
		_, err := evset.BuildL2(e, algo, ta, cands.Addrs[1:], evset.DefaultOptions())
		return h.Clock().Now() - t0, err == nil
	}
	// SF: candidate filtering enabled but not timed (§5.3.2 methodology).
	l2set, err := evset.BuildL2(e, evset.BinSearch{}, ta, cands.Addrs[1:], evset.DefaultOptions())
	if err != nil {
		return 0, false
	}
	members := evset.FilterByL2(e, l2set, cands.Addrs[1:])
	t0 := h.Clock().Now()
	res := evset.BuildSF(e, algo, ta, members, evset.FilteredOptions())
	return h.Clock().Now() - t0, res.OK
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
