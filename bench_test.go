// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper (regenerating each result's core
// measurement), plus micro-benchmarks of the substrates. Run with
//
//	go test -bench=. -benchmem
//
// The full experiment protocols (with success rates and paper-value
// side-by-sides) live in cmd/llcrepro; these benchmarks time the
// underlying operations so regressions in the simulator or the attack
// algorithms are visible.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/defense"
	"repro/internal/dsp"
	"repro/internal/ec2m"
	"repro/internal/ecdsa"
	"repro/internal/evset"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/psd"
	"repro/internal/scenario"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

func cloudCfg() hierarchy.Config { return hierarchy.Scaled(4).WithCloudNoise() }

func newEnv(b *testing.B, seed uint64) (*evset.Env, *evset.Candidates) {
	b.Helper()
	h := hierarchy.NewHost(cloudCfg(), seed)
	e := evset.NewEnv(h, seed^0xbe)
	return e, evset.NewCandidates(e, evset.DefaultPoolSize(cloudCfg()), 0)
}

// --- Table 3: pruning without candidate filtering -------------------------

func benchTable3(b *testing.B, algo evset.Pruner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, cands := newEnv(b, uint64(i)+1)
		res := evset.BuildSF(e, algo, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions())
		_ = res
	}
}

func BenchmarkTable3_Gt(b *testing.B)   { benchTable3(b, evset.GroupTesting{EarlyTermination: true}) }
func BenchmarkTable3_GtOp(b *testing.B) { benchTable3(b, evset.GroupTesting{}) }
func BenchmarkTable3_Ps(b *testing.B)   { benchTable3(b, evset.PrimeScope{}) }

// --- Figure 2: background access monitoring --------------------------------

func BenchmarkFigure2_GapCapture(b *testing.B) {
	e, cands := newEnv(b, 2)
	res := evset.BuildSF(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions())
	if !res.OK {
		b.Fatal("setup failed")
	}
	m := probe.NewMonitor(e, probe.Parallel, res.Set.Lines)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Probe() {
			m.Prime()
		}
	}
}

// --- Figure 3: TestEviction implementations -------------------------------

func BenchmarkFigure3_ParallelTestEviction(b *testing.B) {
	e, cands := newEnv(b, 3)
	ta := cands.Addrs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TestEviction(evset.TargetLLC, ta, cands.Addrs[1:], len(cands.Addrs)-1, true)
	}
}

func BenchmarkFigure3_SequentialTestEviction(b *testing.B) {
	e, cands := newEnv(b, 4)
	ta := cands.Addrs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TestEviction(evset.TargetLLC, ta, cands.Addrs[1:], len(cands.Addrs)-1, false)
	}
}

// --- Table 4: filtered construction ----------------------------------------

func benchTable4Single(b *testing.B, algo evset.Pruner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, cands := newEnv(b, uint64(i)+40)
		res, _ := evset.BuildSingle(e, cands.Addrs[0], cands, evset.BulkOptions{Algo: algo, PerSet: evset.FilteredOptions()})
		_ = res
	}
}

func BenchmarkTable4_SingleSet_BinS(b *testing.B) { benchTable4Single(b, evset.BinSearch{}) }
func BenchmarkTable4_SingleSet_GtOp(b *testing.B) { benchTable4Single(b, evset.GroupTesting{}) }

func BenchmarkTable4_PageOffset_BinS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, cands := newEnv(b, uint64(i)+60)
		evset.BuildPageOffset(e, cands, evset.BulkOptions{Algo: evset.BinSearch{}, PerSet: evset.FilteredOptions()})
	}
}

// --- §5.3.1: candidate filtering -------------------------------------------

func BenchmarkFilter_PartitionByL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, cands := newEnv(b, uint64(i)+80)
		evset.PartitionByL2(e, cands.Addrs, evset.FilteredOptions())
	}
}

// --- §5.3.2: associativity scaling (Ice Lake) -------------------------------

func BenchmarkIceLake_BinS_L2(b *testing.B) {
	cfg := hierarchy.IceLakeSP(4).WithQuiescentNoise()
	for i := 0; i < b.N; i++ {
		h := hierarchy.NewHost(cfg, uint64(i)+1)
		e := evset.NewEnv(h, uint64(i)^0x1c)
		cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
		if _, err := evset.BuildL2(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5 / Figure 6: monitoring strategies ------------------------------

func benchPrime(b *testing.B, strat probe.Strategy) {
	b.Helper()
	e, cands := newEnv(b, 5)
	res := evset.BuildSF(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions())
	if !res.OK {
		b.Fatal("setup failed")
	}
	m := probe.NewMonitor(e, strat, res.Set.Lines).WithAlt(res.Set.Lines)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prime()
	}
}

func BenchmarkTable5_PrimeParallel(b *testing.B) { benchPrime(b, probe.Parallel) }
func BenchmarkTable5_PrimePSFlush(b *testing.B)  { benchPrime(b, probe.PSFlush) }
func BenchmarkTable5_PrimePSAlt(b *testing.B)    { benchPrime(b, probe.PSAlt) }

func BenchmarkFigure6_CovertChannelParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, cands := newEnv(b, uint64(i)+90)
		res := evset.BuildSF(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions())
		if !res.OK {
			continue
		}
		// Sender line: privileged congruent pick.
		target := e.Main.SetOf(res.Set.Ta)
		var sender memory.PAddr
		for _, va := range cands.Addrs[1:] {
			if e.Main.SetOf(va) == target {
				sender = e.Main.Translate(va)
				break
			}
		}
		m := probe.NewMonitor(e, probe.Parallel, res.Set.Lines)
		probe.RunCovertChannel(e, m, 2, sender, 10000, 100)
	}
}

// --- Figure 7 / Table 6: PSD pipeline ---------------------------------------

func BenchmarkFigure7_WelchPSD(b *testing.B) {
	rng := xrand.New(6)
	signal := make([]float64, 2000)
	for i := range signal {
		signal[i] = math.Abs(rng.Norm(0, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.Welch(signal, 1.0/500)
	}
}

func BenchmarkTable6_ScanOneSet(b *testing.B) {
	s := attack.NewSession(cloudCfg(), ec2m.Sect163(), 7)
	p := psd.DefaultParams(s.V.ExpectedAccessPeriod())
	scanner, _, _ := s.TrainScanner(p, xrand.New(8))
	bulk := s.BuildEvictionSets(evset.BulkOptions{Algo: evset.BinSearch{}, PerSet: evset.FilteredOptions()})
	if len(bulk.Sets) == 0 {
		b.Fatal("no sets")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := bulk.Sets[i%len(bulk.Sets)]
		m := probe.NewMonitor(s.Env, probe.Parallel, set.Lines)
		tr := s.CaptureWhileBusy(m, p.TraceCycles)
		scanner.Classify(tr)
	}
}

// --- Figure 9 / §7.3: extraction --------------------------------------------

func BenchmarkFigure9_ExtractBits(b *testing.B) {
	s := attack.NewSession(cloudCfg(), ec2m.Sect163(), 9)
	p := psd.DefaultParams(s.V.ExpectedAccessPeriod())
	rng := xrand.New(10)
	_, td, _ := s.TrainScanner(p, rng)
	ex := attack.TrainExtractor(s.V.IterCycles, td.Traces, td.Truth, rng)
	// One long captured trace, re-extracted each iteration.
	pool := evset.NewCandidates(s.Env, 2*evset.DefaultPoolSize(s.H.Config()), s.V.TargetOffset())
	var lines []memory.VAddr
	for _, va := range pool.Addrs {
		if s.Env.Main.SetOf(va) == s.V.TargetSet() {
			lines = append(lines, va)
			if len(lines) == s.H.Config().SFWays {
				break
			}
		}
	}
	m := probe.NewMonitor(s.Env, probe.Parallel, lines)
	rec := s.TriggerOneSigning()
	tr := m.Capture(rec.End - s.H.Clock().Now() + 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bits := ex.Extract(tr)
		if i == 0 {
			sc := attack.ScoreExtraction(bits, rec, ex.IterCycles)
			b.ReportMetric(sc.Fraction()*100, "%bits")
		}
	}
}

func BenchmarkE2E_FullAttack(b *testing.B) {
	train := attack.NewSession(cloudCfg(), ec2m.Sect163(), 11)
	p := psd.DefaultParams(train.V.ExpectedAccessPeriod())
	rng := xrand.New(12)
	scanner, td, _ := train.TrainScanner(p, rng)
	ex := attack.TrainExtractor(train.V.IterCycles, td.Traces, td.Truth, rng)
	opt := attack.DefaultE2EOptions()
	opt.Traces = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := attack.NewSession(cloudCfg(), ec2m.Sect163(), uint64(i)+100)
		res := s.RunEndToEnd(scanner, ex, opt)
		if i == 0 && res.SignalFound {
			b.ReportMetric(res.MedianFraction()*100, "%bits")
		}
	}
}

// --- Ablations ---------------------------------------------------------------

func BenchmarkAblationReplacement_SRRIPPrime(b *testing.B) {
	cfg := cloudCfg()
	cfg.SFPolicy = 2 // cache.SRRIP
	h := hierarchy.NewHost(cfg, 13)
	e := evset.NewEnv(h, 14)
	cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
	res := evset.BuildSF(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.DefaultOptions())
	if !res.OK {
		b.Skip("construction failed under SRRIP")
	}
	m := probe.NewMonitor(e, probe.Parallel, res.Set.Lines)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prime()
	}
}

func BenchmarkAblationBacktrack_BinSUnderNoise(b *testing.B) {
	cfg := cloudCfg().WithNoiseRate(120) // heavy noise stresses recovery
	for i := 0; i < b.N; i++ {
		h := hierarchy.NewHost(cfg, uint64(i)+1)
		e := evset.NewEnv(h, uint64(i)^0xbb)
		cands := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
		evset.BuildSF(e, evset.BinSearch{}, cands.Addrs[0], cands.Addrs[1:], evset.FilteredOptions())
	}
}

// --- Trial engine -----------------------------------------------------------

// BenchmarkEngine_Table3 times a whole engine-driven runner (16 trials
// over pooled hosts) — the end-to-end number the parallel orchestration
// work optimizes.
func BenchmarkEngine_Table3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(experiments.Options{Seed: uint64(i) + 1, Trials: 2})
	}
}

// BenchmarkMicro_NewHost vs BenchmarkMicro_HostReset show what the host
// pools save per trial: Reset reuses the frame pool and cache arrays.
func BenchmarkMicro_NewHost(b *testing.B) {
	cfg := cloudCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hierarchy.NewHost(cfg, uint64(i)+1)
	}
}

func BenchmarkMicro_HostReset(b *testing.B) {
	h := hierarchy.NewHost(cloudCfg(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset(uint64(i) + 1)
	}
}

// BenchmarkMicro_ParallelProbe times the Parallel-Probing loop of an
// 8-line monitor on a recycled cloud host as keyrecovery's extract runs
// it (probe.Monitor.Capture): one probe per op, re-priming only after a
// detection. Nearly every probe is a batch of 8 L1 hits repeating the
// previous one with no background access in between, which the
// quiet-batch kernel replays, so the op prices that replay: the
// tenant's Poisson and the jitter draws of 8 accesses and one batch
// bound.
func BenchmarkMicro_ParallelProbe(b *testing.B) { benchParallelProbe(b, cloudCfg()) }

// BenchmarkMicro_ParallelProbeNoisy is the same probe under a
// background rate (10000/ms per set) at which the quiet-batch kernel
// aborts most of the batches it replays: a tenant access lands in the
// set during the batch, so the replay is thrown away and the general
// path runs the batch. It prices the abort path. At 100000 ops on a
// 2-vCPU Xeon VM, 54% of the replayed batches aborted (6158 of 11442);
// most probes see a tenant access and re-prime, so 89% of them ran on
// the general path alone.
func BenchmarkMicro_ParallelProbeNoisy(b *testing.B) {
	benchParallelProbe(b, hierarchy.Scaled(4).WithNoiseRate(10000))
}

func benchParallelProbe(b *testing.B, cfg hierarchy.Config) {
	h := hierarchy.NewHost(cfg, 1)
	h.Reset(17)
	e := evset.NewEnv(h, 17^0xbe)
	pool := evset.NewCandidates(e, 2*evset.DefaultPoolSize(cfg), 0)
	target := e.Main.SetOf(pool.Addrs[0])
	var lines []memory.VAddr
	for _, va := range pool.Addrs {
		if e.Main.SetOf(va) == target {
			lines = append(lines, va)
			if len(lines) == cfg.SFWays {
				break
			}
		}
	}
	if len(lines) != 8 {
		b.Fatalf("found %d congruent lines, want 8", len(lines))
	}
	m := probe.NewMonitor(e, probe.Parallel, lines)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Probe() {
			m.Prime()
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

// scanSets is the set count of BenchmarkMicro_CacheScan's caches (an
// LLC slice's), and scanTag the tag of line k of set s: tags share
// their index bits, as in every simulated cache.
const scanSets = 2048

func scanTag(s, k int) cache.Tag { return cache.Tag(k*scanSets + s + 1<<30) }

// BenchmarkMicro_CacheScan times internal/cache's set scans alone, on
// full 12-way (an SF slice) and 16-way (an L2) sets: a Lookup that hits
// (and touches true-LRU state), a Lookup that misses, and a Remove that
// misses — the back-invalidation of a core that holds no copy. The last
// case is a Remove on an empty set, which answers from the valid mask.
// Each op scans every set once, in a fixed shuffled order as the
// hierarchy's hashed set indices do, so the op stays measurable at
// benchguard's -benchtime=3x and the prefetcher cannot stream the tags.
func BenchmarkMicro_CacheScan(b *testing.B) {
	order := make([]int, scanSets)
	for i := range order {
		order[i] = i
	}
	xrand.New(3).ShuffleInts(order)
	scan := func(b *testing.B, op func(s, i int)) {
		for i := 0; i < b.N; i++ {
			for _, s := range order {
				op(s, i)
			}
		}
	}
	for _, ways := range []int{12, 16} {
		c := cache.New(cache.Config{Name: "scan", Sets: scanSets, Ways: ways, Policy: cache.TrueLRU}, xrand.New(1))
		for s := 0; s < scanSets; s++ {
			for k := 0; k < ways; k++ {
				c.Insert(s, scanTag(s, k), 0)
			}
		}
		b.Run(fmt.Sprintf("lookup-hit/%dway", ways), func(b *testing.B) {
			scan(b, func(s, i int) { c.Lookup(s, scanTag(s, i%ways)) })
		})
		b.Run(fmt.Sprintf("lookup-miss/%dway", ways), func(b *testing.B) {
			scan(b, func(s, i int) { c.Lookup(s, scanTag(s, ways+i%ways)) })
		})
		b.Run(fmt.Sprintf("remove-miss/%dway", ways), func(b *testing.B) {
			scan(b, func(s, i int) { c.Remove(s, scanTag(s, ways+i%ways)) })
		})
	}
	empty := cache.New(cache.Config{Name: "scan", Sets: scanSets, Ways: 16, Policy: cache.TrueLRU}, xrand.New(1))
	b.Run("remove-empty", func(b *testing.B) {
		scan(b, func(s, i int) { empty.Remove(s, scanTag(s, i%16)) })
	})
}

func BenchmarkMicro_HierarchyAccess(b *testing.B) {
	cfg := cloudCfg()
	h := hierarchy.NewHost(cfg, 15)
	a := h.NewAgent(0)
	buf := a.Alloc(512)
	addrs := make([]memory.VAddr, 512)
	for i := range addrs {
		addrs[i] = buf.LineAt(i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(addrs[i%len(addrs)])
	}
}

// BenchmarkMicro_SharedTraversal times the grid's wall: one op is one
// LoadSharedAll, the two-thread shared load eviction-set construction
// traverses candidates with, over the first L2-filtered group of a
// default candidate pool. The host is the grid's (Scaled(4), 8-way SF)
// under Cloud Run noise, with the LLC and SF under the sub-benchmark's
// policy. Traversals repeat over one pool, so after the first they take
// the mix of LLC hits and refetches a pruning loop sees.
func BenchmarkMicro_SharedTraversal(b *testing.B) {
	for _, kind := range []cache.PolicyKind{cache.TrueLRU, cache.SRRIP, cache.RandomRepl} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := hierarchy.Scaled(4).WithCloudNoise().WithSharedPolicy(kind)
			e := evset.NewEnv(hierarchy.NewHost(cfg, 5), 5^0xbe)
			pool := evset.NewCandidates(e, evset.DefaultPoolSize(cfg), 0)
			groups, _ := evset.PartitionByL2(e, pool.Addrs, evset.FilteredOptions())
			if len(groups) == 0 {
				b.Fatal("L2 filtering found no group")
			}
			lines := groups[0].Members
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Main.LoadSharedAll(e.Helper, lines)
			}
		})
	}
}

func BenchmarkMicro_FFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		dsp.FFT(buf)
	}
}

func BenchmarkMicro_GF2m571Mul(b *testing.B) {
	c := ec2m.Sect571()
	rng := xrand.New(16)
	x, y := c.F.Rand(rng), c.F.Rand(rng)
	out := c.F.NewElem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.F.Mul(out, x, y)
	}
}

func BenchmarkMicro_LadderSign163(b *testing.B) {
	c := ec2m.Sect163()
	rng := xrand.New(17)
	key := ecdsa.GenerateKey(c, rng)
	z := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := key.Sign(z, rng, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SVMPredict(b *testing.B) {
	rng := xrand.New(18)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := []float64{rng.Norm(0, 1), rng.Norm(0, 1)}
		x = append(x, v)
		if v[0] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	svm := classify.NewSVM(classify.SVMConfig{Kernel: classify.PolyKernel(3, 1, 1)})
	svm.Train(x, y, rng)
	probeVec := []float64{0.3, -0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svm.Predict(probeVec)
	}
}

func BenchmarkMicro_LatticeHNPToy(b *testing.B) {
	c := ec2m.ToyCurve()
	rng := xrand.New(19)
	key := ecdsa.GenerateKey(c, rng)
	var leaks []lattice.Leak
	for i := 0; len(leaks) < 5 && i < 60; i++ {
		z := big.NewInt(int64(7000 + i))
		sig, nonce, err := key.Sign(z, rng, nil)
		if err != nil || nonce.BitLen() <= 9 {
			continue
		}
		top := new(big.Int).Rsh(nonce, uint(nonce.BitLen()-9))
		leaks = append(leaks, lattice.LeakFromTopBits(sig.R, sig.S, z, top, nonce.BitLen(), 9))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := lattice.HNP(c.N, leaks, func(d *big.Int) bool { return d.Cmp(key.D) == 0 }); !ok {
			b.Fatal("HNP failed")
		}
	}
}

// BenchmarkMicro_LatticeHNP163 times one key-recovery lattice attempt at
// the scale e2e/keyrecovery runs: sect163, 5 leaks of 40 known nonce bits
// each, an LLL basis of dimension 7.
func BenchmarkMicro_LatticeHNP163(b *testing.B) {
	c := ec2m.Sect163()
	rng := xrand.New(22)
	key := ecdsa.GenerateKey(c, rng)
	const known = 40
	var leaks []lattice.Leak
	for i := 0; len(leaks) < 5; i++ {
		z := big.NewInt(int64(11000 + i))
		sig, nonce, err := key.Sign(z, rng, nil)
		if err != nil || nonce.BitLen() <= known {
			continue
		}
		top := new(big.Int).Rsh(nonce, uint(nonce.BitLen()-known))
		leaks = append(leaks, lattice.LeakFromTopBits(sig.R, sig.S, z, top, nonce.BitLen(), known))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := lattice.HNP(c.N, leaks, func(d *big.Int) bool { return d.Cmp(key.D) == 0 }); !ok {
			b.Fatal("HNP failed")
		}
	}
}

// BenchmarkMicro_ForestTrain fits a boundary forest of the size
// attack.TrainExtractor fits per trial: about 2.4k rows of 5 clamped gap
// features, 25 trees of depth 10.
func BenchmarkMicro_ForestTrain(b *testing.B) {
	rng := xrand.New(23)
	x := make([][]float64, 2400)
	y := make([]int, len(x))
	for i := range x {
		row := make([]float64, 5)
		for f := range row {
			row[f] = math.Min(3, math.Abs(rng.Norm(1, 0.5)))
		}
		x[i] = row
		if math.Abs(row[0]-1) < 0.15 && math.Abs(row[1]-1) < 0.3 && rng.Float64() < 0.95 {
			y[i] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.NewForest(classify.ForestConfig{Trees: 25, MaxDepth: 10}).Train(x, y, xrand.New(24))
	}
}

// --- End-to-end scenarios (internal/scenario) --------------------------------

// BenchmarkScenario_E2EExtract times one full §7.3 pipeline trial —
// training, eviction-set construction, PSD scan, and Parallel-Probing
// extraction — through the scenario registry: the whole-attack
// regression number the benchmark guard tracks.
func BenchmarkScenario_E2EExtract(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunWithObs(context.Background(), "e2e/extract", nil, nil, 1, 1, uint64(i)+1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario_CovertChannel times one covert-channel scenario
// trial (build the shared set, run the channel).
func BenchmarkScenario_CovertChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunWithObs(context.Background(), "covert/channel", nil, nil, 1, 1, uint64(i)+1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Background tenant models (internal/tenant) ------------------------------

// benchTenant times the host's lazy noise-sync path under one tenant
// model: alternating idle windows (which accumulate tenant activity)
// with demand accesses (which sync it), the access pattern every
// monitoring protocol reduces to.
func benchTenant(b *testing.B, spec tenant.Spec) {
	b.Helper()
	cfg := hierarchy.Scaled(4).WithTenants(spec)
	h := hierarchy.NewHost(cfg, 1)
	a := h.NewAgent(0)
	buf := a.Alloc(256)
	addrs := make([]memory.VAddr, 256)
	for i := range addrs {
		addrs[i] = buf.LineAt(i, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			a.Idle(100_000)
		}
		a.Access(addrs[i%len(addrs)])
	}
}

func BenchmarkTenant_Burst(b *testing.B) {
	benchTenant(b, tenant.Spec{Model: "burst", Rate: 34.5, LLCProb: 0.5, OnFrac: 0.1, OnMs: 2})
}

func BenchmarkTenant_Stream(b *testing.B) {
	benchTenant(b, tenant.Spec{Model: "stream", Rate: 34.5, LLCProb: 0.5, Width: 4})
}

func BenchmarkTenant_Churn(b *testing.B) {
	benchTenant(b, tenant.Spec{Model: "churn", Rate: 11.5, LLCProb: 0.5,
		ArrivalsPerMs: 0.05, LifeMs: 5, FootprintFrac: 0.5})
}

// benchDefense times the demand-access path through one defense model's
// hooks (index derivation, way-regioned insertion, per-access tick),
// the per-access overhead every defended experiment pays.
func benchDefense(b *testing.B, spec defense.Spec) {
	b.Helper()
	cfg := hierarchy.Scaled(4).WithCloudNoise().WithDefense(spec)
	h := hierarchy.NewHost(cfg, 1)
	a := h.NewAgent(0)
	buf := a.Alloc(256)
	addrs := make([]memory.VAddr, 256)
	for i := range addrs {
		addrs[i] = buf.LineAt(i, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			a.Idle(100_000)
		}
		a.Access(addrs[i%len(addrs)])
	}
}

func BenchmarkDefense_Partition(b *testing.B) {
	benchDefense(b, defense.Spec{Model: "partition", Ways: 4})
}

func BenchmarkDefense_Randomize(b *testing.B) {
	benchDefense(b, defense.Spec{Model: "randomize"})
}

// --- Observability: the disabled path must stay free ----------------------

// BenchmarkObs_DisabledHooks times the nil-receiver no-op path every
// instrumented loop pays when -trace/-metrics are off — the zero-cost
// half of determinism clause 9. Each op performs 1000 rounds of the
// disabled counter/gauge/histogram/trace calls the engine and campaign
// hot paths make, so the guard measures the hook overhead itself rather
// than loop scaffolding (and stays measurable at -benchtime=3x).
func BenchmarkObs_DisabledHooks(b *testing.B) {
	var reg *obs.Registry
	var tr *obs.TrialTrace
	ctr := reg.Counter("bench_total")
	gauge := reg.Gauge("bench_gauge")
	hist := reg.Histogram("bench_seconds", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 1000; k++ {
			ctr.Inc()
			gauge.Set(1)
			hist.Observe(1)
			if tr.Enabled() {
				tr.Span("x", "phase", 0, 1, 0, true)
			}
		}
	}
}
