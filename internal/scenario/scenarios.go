package scenario

import (
	"math/big"

	"repro/internal/attack"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/ec2m"
	"repro/internal/evset"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/memory"
	"repro/internal/probe"
	"repro/internal/psd"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

// This file implements the registered scenarios. Every pipeline runs on
// the scaled Cloud Run host by default (the paper's serverless
// environment); degraded variants bake a harsher config — a noisy
// neighbor tenant or a small Snoop Filter associativity — so robustness
// of the WHOLE attack, not just one step, is measurable.

// Key-recovery tuning (sect163-scale HNP): leaks carry knownBits leaked
// top nonce bits each; latticeSubset leaks per lattice call puts
// latticeSubset*knownBits ≈ 200 known bits against the 163-bit key,
// comfortable HNP slack at LLL dimension latticeSubset+2. Misread leaks
// are tolerated by enumerating subsets of the confidence-ranked leaks.
const (
	knownBits      = 40
	wantLeaks      = 12
	latticeSubset  = 5
	maxSignings    = 40
	maxLatticeTrys = 24
)

func init() {
	cloud := func() hierarchy.Config { return hierarchy.Scaled(4).WithCloudNoise() }
	// Noisy neighbor: a co-tenant hammering the LLC at 3x the measured
	// Cloud Run background rate.
	noisy := func() hierarchy.Config { return hierarchy.Scaled(4).WithNoiseRate(34.5) }
	// Small SF associativity: 6-way instead of the scaled host's 8-way,
	// shrinking the eviction sets the whole pipeline builds on.
	smallSF := func() hierarchy.Config { return hierarchy.Scaled(4).WithSFAssociativity(6).WithCloudNoise() }
	// Structured-tenant variants (internal/tenant): the same mean
	// pressure as the flat noisy/cloud neighbours, re-shaped into the
	// phased, spatial and churning regimes of real co-residents.
	bursty := func() hierarchy.Config {
		// The noisy neighbour's 34.5/ms mean concentrated into 10% duty
		// bursts: 345/ms while on, silent otherwise.
		return hierarchy.Scaled(4).WithTenants(
			tenant.Spec{Model: "burst", Rate: 34.5, LLCProb: 0.5, OnFrac: 0.1, OnMs: 2})
	}
	churny := func() hierarchy.Config {
		// Serverless cold-start churn at the Cloud Run mean: instances
		// arrive every ~20 ms, live ~5 ms, each flooding half the sets.
		return hierarchy.Scaled(4).WithTenants(
			tenant.Spec{Model: "churn", Rate: 11.5, LLCProb: 0.5,
				ArrivalsPerMs: 0.05, LifeMs: 5, FootprintFrac: 0.5})
	}
	streamy := func() hierarchy.Config {
		// A sequential scanner sweeping set indices at 3x the Cloud Run
		// mean, 4 accesses per visit.
		return hierarchy.Scaled(4).WithTenants(
			tenant.Spec{Model: "stream", Rate: 34.5, LLCProb: 0.5, Width: 4})
	}
	hotsetty := func() hierarchy.Config {
		// A co-tenant whose working set collides with a quarter of the
		// sets, at 4x the per-set pressure there (same total as 34.5 flat).
		return hierarchy.Scaled(4).WithTenants(
			tenant.Spec{Model: "hotset", Rate: 34.5, LLCProb: 0.5, HotFrac: 0.25})
	}

	Register(Scenario{
		ID:     "scan/psd",
		Desc:   "steps 1-2: build page-offset eviction sets, PSD-scan for the victim's target set",
		Config: cloud,
		Run:    runScan,
	})
	Register(Scenario{
		ID:     "e2e/extract",
		Desc:   "§7.3 protocol: construction, PSD scan, Parallel-Probing nonce-bit extraction",
		Config: cloud,
		Run:    runExtract,
	})
	Register(Scenario{
		ID:     "e2e/extract/noisy",
		Desc:   "e2e/extract degraded by a noisy neighbor (3x Cloud Run background rate)",
		Config: noisy,
		Run:    runExtract,
	})
	Register(Scenario{
		ID:     "e2e/extract/smallsf",
		Desc:   "e2e/extract degraded to a 6-way Snoop Filter",
		Config: smallSF,
		Run:    runExtract,
	})
	Register(Scenario{
		ID:     "e2e/keyrecovery",
		Desc:   "full chain: extraction plus HNP lattice until the sect163 private key verifies",
		Config: cloud,
		Run:    runKeyRecovery,
	})
	Register(Scenario{
		ID:     "covert/channel",
		Desc:   "cross-tenant covert channel over one SF set with Parallel Probing (5k-cycle interval)",
		Config: cloud,
		Run:    runCovert,
	})
	Register(Scenario{
		ID:     "covert/channel/noisy",
		Desc:   "covert/channel degraded by a noisy neighbor (3x Cloud Run background rate)",
		Config: noisy,
		Run:    runCovert,
	})
	Register(Scenario{
		ID:     "e2e/extract/burst",
		Desc:   "e2e/extract under a bursty tenant (34.5/ms mean in 10%-duty on/off phases)",
		Config: bursty,
		Run:    runExtract,
	})
	Register(Scenario{
		ID:     "e2e/keyrecovery/churn",
		Desc:   "e2e/keyrecovery under serverless cold-start churn (arrivals flooding half the sets)",
		Config: churny,
		Run:    runKeyRecovery,
	})
	Register(Scenario{
		ID:     "covert/channel/stream",
		Desc:   "covert/channel under a streaming tenant sweeping set indices at 3x Cloud Run rate",
		Config: streamy,
		Run:    runCovert,
	})
	Register(Scenario{
		ID:     "scan/psd/hotset",
		Desc:   "scan/psd with a hot-set tenant colliding with a quarter of the sets at 4x pressure",
		Config: hotsetty,
		Run:    runScan,
	})

	// Defended variants (internal/defense): the same pipelines against a
	// host that deploys one countermeasure, so every attack step's
	// robustness — and the defense's cost — is measurable against the
	// undefended cells above (the DEFENSE_seed.json artifact's axis).
	defended := func(spec defense.Spec) func() hierarchy.Config {
		return func() hierarchy.Config { return hierarchy.Scaled(4).WithCloudNoise().WithDefense(spec) }
	}
	Register(Scenario{
		ID:     "e2e/extract/partition",
		Desc:   "e2e/extract against CAT-style way-partitioning (attacker confined to 4 of 8 SF ways)",
		Config: defended(defense.Spec{Model: "partition", Ways: 4}),
		Run:    runExtract,
	})
	Register(Scenario{
		ID:     "e2e/keyrecovery/randomize",
		Desc:   "e2e/keyrecovery against CEASER-style keyed index randomization (rekeyed every 100k accesses)",
		Config: defended(defense.Spec{Model: "randomize"}),
		Run:    runKeyRecovery,
	})
	Register(Scenario{
		ID:     "scan/psd/scatter",
		Desc:   "scan/psd against ScatterCache-style per-domain skewed index derivation",
		Config: defended(defense.Spec{Model: "scatter"}),
		Run:    runScan,
	})
	Register(Scenario{
		ID:     "covert/channel/quiesce",
		Desc:   "covert/channel against quantized probe feedback (512-cycle timer quantum)",
		Config: defended(defense.Spec{Model: "quiesce"}),
		Run:    runCovert,
	})
}

// scanTimeout returns the pipeline's Step-2 scan budget: the paper's
// 60 s (PageOffset, §7.2) on an undefended host, tightened to 250 ms of
// virtual time against a defended one. The tight budget still covers
// the whole undefended success distribution several times over (~8 full
// passes across the page-offset sets; observed undefended successes
// finish within 120 ms), but bounds the defended scans — which mostly
// CANNOT succeed, by construction of the defense — so a failing trial
// costs milliseconds of simulated scanning instead of a minute.
func scanTimeout(cfg hierarchy.Config) clock.Cycles {
	if cfg.Defense != nil {
		return clock.FromMillis(250)
	}
	return clock.FromMillis(60_000)
}

// outcome closes the trial's recorder into its Outcome: the steps run so
// far, and the whole pipeline's virtual time.
func outcome(t *experiments.Trial, success bool) Outcome {
	steps, total := t.Phases.Finish(success)
	return Outcome{Success: success, Steps: steps, TotalCycles: total}
}

// newSession co-locates an attacker and a sect163 victim on the trial's
// pooled host and binds the trial's recorder to that host's clock.
func newSession(t *experiments.Trial, cfg hierarchy.Config) *attack.Session {
	s := attack.NewSessionOn(t.Host(cfg, t.Seed), ec2m.Sect163(), t.Seed)
	s.Trace, s.Phases = t.Trace, t.Phases
	t.Phases.Bind(s.H.Clock())
	return s
}

// train runs the §7.2 controlled training phase on the session's own
// host as the "train" step. It returns the PSD scanner (nil when
// training fails) and, when withExtractor is set, the boundary-forest
// extractor, fitted after the scanner on the same data and rng.
func train(s *attack.Session, seed uint64, withExtractor bool) (scanner *psd.Scanner, ex *attack.Extractor) {
	s.Phases.Run("train", func() bool {
		rng := xrand.New(seed ^ 0x7a1)
		var td attack.TrainingData
		scanner, td, _ = s.TrainScanner(psd.DefaultParams(s.V.ExpectedAccessPeriod()), rng)
		if scanner != nil && withExtractor {
			ex = attack.TrainExtractor(s.V.IterCycles, td.Traces, td.Truth, rng)
		}
		return scanner != nil
	})
	return scanner, ex
}

// locate runs train → build → scan, the prefix of the scan and
// key-recovery pipelines, one step each, and reports whether all three
// succeeded; the first step that fails ends it. The scan step succeeds
// when the scanner found a set and, with correct (scan/psd's
// privileged check, as in Table 6), only when that set is the victim's.
func locate(s *attack.Session, seed uint64, cfg hierarchy.Config, correct bool) (target attack.ScanResult, ok bool) {
	scanner, _ := train(s, seed, false)
	var bulk evset.BulkResult
	ok = scanner != nil && s.Phases.Run("build", func() bool {
		bulk = s.BuildEvictionSets(attack.DefaultE2EOptions().Bulk)
		return len(bulk.Sets) > 0
	}) && s.Phases.Run("scan", func() bool {
		target = s.ScanForTarget(bulk.Sets, scanner, attack.ScanOptions{Timeout: scanTimeout(cfg)})
		return target.Found && (target.Correct || !correct)
	})
	return target, ok
}

// runScan is steps 1-2 of the protocol: success means the PSD scanner
// identified the CORRECT set (privileged check, as in Table 6).
func runScan(t *experiments.Trial, cfg hierarchy.Config) Outcome {
	_, ok := locate(newSession(t, cfg), t.Seed, cfg, true)
	return outcome(t, ok)
}

// runExtract is the §7.3 protocol: success is the paper's per-host
// notion (a target set was identified and produced a signal); the bit
// fields carry the exact extraction accounting.
func runExtract(t *experiments.Trial, cfg hierarchy.Config) Outcome {
	s := newSession(t, cfg)
	scanner, ex := train(s, t.Seed, true)
	if scanner == nil {
		return outcome(t, false)
	}
	opt := attack.DefaultE2EOptions()
	opt.Traces = 5
	opt.ScanTimeout = scanTimeout(cfg)
	res := s.RunEndToEnd(scanner, ex, opt)
	// "Produced a signal" requires recovered bits, not just a scanner
	// verdict: a defended host's garbage-trained scanner can still
	// false-positive a set, but an extraction that reads zero bits is a
	// failed attack.
	o := outcome(t, res.SignalFound && res.BitsRecovered > 0)
	o.BitsRecovered = res.BitsRecovered
	o.BitsTotal = res.BitsTotal
	o.BitsWrong = res.BitsWrong
	return o
}

// runKeyRecovery is the complete chain, one step beyond the paper's
// demonstration (which cites lattice attacks for the last step): monitor
// the scanned set across signings, anchor leaked MSB runs, and feed them
// into the HNP lattice until the victim's private key verifies against
// its public point. Success requires the recovered key to equal ground
// truth — everything the attacker USES is attacker-visible (detections,
// boundary spacing, public signatures, public key Q); ground truth only
// scores the result.
func runKeyRecovery(t *experiments.Trial, cfg hierarchy.Config) Outcome {
	s := newSession(t, cfg)
	target, ok := locate(s, t.Seed, cfg, false)
	if !ok {
		return outcome(t, false)
	}

	// Collect candidate leaks: one signing per trace; the comb reader in
	// leaks.go anchors iteration 0, reads the leading nonce bits, and
	// measures the per-nonce ladder length — all attacker-visible. The
	// monitor's set-up stays outside the extract step.
	nbits := s.V.Curve.N.BitLen()
	var cands []scoredLeak
	m := probe.NewMonitor(s.Env, probe.Parallel, target.Set.Lines)
	if !t.Phases.Run("extract", func() bool {
		for i := 0; len(cands) < wantLeaks && i < maxSignings; i++ {
			rec := s.TriggerOneSigning()
			tr := m.Capture(rec.End - s.H.Clock().Now() + 30_000)
			if sl, ok := leakFromTrace(tr, rec.Sig.R, rec.Sig.S, rec.Digest, s.V.IterCycles, rec.Start, nbits); ok {
				cands = append(cands, sl)
			}
		}
		return len(cands) >= latticeSubset
	}) {
		o := outcome(t, false)
		o.Leaks = len(cands)
		return o
	}

	// The real key iff d·G == Q: public-key verification only.
	curve := s.V.Curve
	pub := s.V.Key.Q
	verify := func(d *big.Int) bool {
		pt := curve.ScalarMult(d, curve.G)
		return !pt.Inf && !pub.Inf && pt.X.Equal(pub.X) && pt.Y.Equal(pub.Y)
	}
	// Some leaks carry a misread bit or a mismeasured ladder length: walk
	// lattice attempts over subsets of the confidence-ranked leaks, best
	// subset first, until a candidate key verifies. The lattice is
	// off-host computation: it advances no virtual clock, so its step
	// carries a zero cycle budget by construction (LatticeAttempts
	// records the work done instead).
	leaks := bestLeaks(cands)
	rng := xrand.New(t.Seed ^ 0x1a771ce)
	var recovered *big.Int
	attempts := 0
	t.Phases.Run("lattice", func() bool {
		for _, idxs := range attemptSubsets(len(leaks), latticeSubset, maxLatticeTrys, rng) {
			attempts++
			subset := make([]lattice.Leak, 0, latticeSubset)
			for _, j := range idxs {
				subset = append(subset, leaks[j])
			}
			if d, ok := lattice.HNP(curve.N, subset, verify); ok {
				recovered = d
				return true
			}
		}
		return false
	})

	keyOK := recovered != nil && recovered.Cmp(s.V.Key.D) == 0
	o := outcome(t, keyOK)
	o.Leaks = len(leaks)
	o.LatticeAttempts = attempts
	o.KeyRecovered = keyOK
	return o
}

// runCovert builds the shared SF set (the covert setup shared with the
// Table 5 / Figure 6 runners and the probe/detect cell) and runs the
// §6.1 covert channel with Parallel Probing at a 5k-cycle sender
// interval. Success means the channel is usable (set built and detection
// rate >= 50%); capacity models the channel as a binary erasure channel:
// detection rate times the send rate.
func runCovert(t *experiments.Trial, cfg hierarchy.Config) Outcome {
	const (
		interval = clock.Cycles(5000)
		sends    = 200
	)
	var (
		e          *evset.Env
		lines, alt []memory.VAddr
		sender     memory.PAddr
	)
	// The build step obtains the trial's host, freshly reset to clock
	// zero, so it binds the recorder itself and is charged the whole
	// set-up. A failed set-up returns no host: its step and the trial
	// read zero cycles.
	if !t.Phases.Run("build", func() bool {
		var ok bool
		e, lines, alt, sender, ok = experiments.CovertSetup(t, cfg, t.Seed)
		if ok {
			t.Phases.Bind(e.Host().Clock())
		}
		return ok
	}) {
		return outcome(t, false)
	}
	var cres probe.CovertResult
	t.Phases.Run("channel", func() bool {
		m := probe.NewMonitor(e, probe.Parallel, lines).WithAlt(alt)
		cres = probe.RunCovertChannel(e, m, 2, sender, interval, sends)
		return cres.Sent > 0
	})
	o := outcome(t, cres.DetectionRate >= 0.5)
	o.BitsRecovered = cres.Detected
	o.BitsTotal = cres.Sent
	o.CapacityBps = cres.DetectionRate / interval.Seconds()
	return o
}
