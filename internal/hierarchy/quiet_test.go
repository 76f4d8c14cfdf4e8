package hierarchy

import (
	"encoding/binary"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

// congruentLines returns n of the agent's lines that share one LLC/SF
// set (and so, at one page offset, one L1 set), allocating pages until
// the set has n: the shape of a minimal SF eviction set.
func congruentLines(t *testing.T, a *Agent, n int) []memory.VAddr {
	t.Helper()
	groups := map[SetID][]memory.VAddr{}
	for page := 0; page < 4096; page++ {
		va := a.Alloc(1).LineAt(0, 0)
		set := a.SetOf(va)
		groups[set] = append(groups[set], va)
		if g := groups[set]; len(g) == n {
			return g
		}
	}
	t.Fatalf("no LLC/SF set collected %d lines", n)
	return nil
}

// quietTally counts the quiet-batch kernel's outcomes over the batches
// run through it, read from observable state. A batch the kernel
// replays is one that matches the memo (same core, address space and
// lines; L1 Version unchanged). It committed if it left the core's L1
// Version unchanged, since the kernel makes no touches, and aborted if
// the Version advanced, since the general path that then runs the
// batch touches the L1 on every access.
type quietTally struct{ commits, aborts int }

// batch runs a.AccessParallel(vas) and tallies the kernel's outcome.
func (q *quietTally) batch(a *Agent, vas []memory.VAddr) (clock.Cycles, int) {
	l1 := a.h.cores[a.core].l1
	replayed, ver := a.h.quiet.matches(a, vas, l1), l1.Version()
	t, misses := a.AccessParallel(vas)
	switch {
	case !replayed:
	case l1.Version() == ver:
		q.commits++
	default:
		q.aborts++
	}
	return t, misses
}

// TestQuietBatchEngages runs keyrecovery's monitor loop on the scaled
// cloud host: an 8-line Parallel-Probing batch repeated back to back,
// the rdtsc overhead between probes, a two-round refetching prime after
// every probe that missed, and a victim on another core touching a line
// of the same set every 20000 cycles. The quiet-batch kernel must
// commit at least 90% of the probes, and abort at least once.
func TestQuietBatchEngages(t *testing.T) {
	h := NewHost(Scaled(4).WithCloudNoise(), 3)
	a := h.NewAgent(0)
	victim := h.NewAgentSharing(2, a.AddressSpace())
	lines := congruentLines(t, a, 9)
	probe, target := lines[:8], victim.Translate(lines[8])
	prime := func() {
		for round := 0; round < 2; round++ {
			for _, va := range probe {
				a.DropL1(va)
				a.EvictPrivateQuiet(va)
			}
			a.AccessParallel(probe)
		}
	}
	prime()
	const probes = 100000
	next := h.clk.Now()
	measure := clock.Cycles(h.cfg.Lat.Measure)
	var q quietTally
	for i := 0; i < probes; i++ {
		if now := h.clk.Now(); now >= next {
			next = now + 20000
			h.Schedule(Event{Time: next, Core: 2, PA: target, Refetch: true})
		}
		_, misses := q.batch(a, probe)
		h.clk.Advance(measure)
		if misses > 0 {
			prime()
		}
	}
	commits, aborts := q.commits, q.aborts
	if frac := float64(commits) / probes; frac < 0.9 || aborts == 0 {
		t.Fatalf("kernel committed %d of %d probes (%.3f), aborted %d; want at least 90%% and an abort", commits, probes, frac, aborts)
	}
	t.Logf("committed %d of %d probes (%.4f), aborted %d", commits, probes, float64(commits)/probes, aborts)
}

// TestQuietBatchBypasses pins which hosts never replay: jitter off, a
// tenant that is not memoryless, and every defense with a per-access or
// measurement hook. Their repeated all-L1-hit batches leave no memo and
// run on the general path.
func TestQuietBatchBypasses(t *testing.T) {
	noJitter := Scaled(4).WithCloudNoise()
	noJitter.Lat.JitterFrac = 0
	cases := map[string]Config{
		"jitter 0":  noJitter,
		"burst":     Scaled(4).WithTenants(tenant.Spec{Model: "burst", Rate: 34.5, LLCProb: 0.5}),
		"randomize": Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "randomize", Period: 5000}),
		"scatter":   Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "scatter"}),
		"quiesce":   Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "quiesce", Quantum: 16, Jitter: 3}),
	}
	for name, cfg := range cases {
		h := NewHost(cfg, 5)
		a := h.NewAgent(0)
		lines := congruentLines(t, a, 4)
		var q quietTally
		for i := 0; i < 50; i++ {
			q.batch(a, lines)
		}
		if h.quietHost || h.quiet.as != nil || q.commits+q.aborts != 0 {
			t.Errorf("%s: quiet host %v, memo %v, counts %+v; want a host that bypasses every batch", name, h.quietHost, h.quiet.as != nil, q)
		}
	}
	for name, cfg := range map[string]Config{"undefended": Scaled(4).WithCloudNoise(), "partition": Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "partition", Ways: 4})} {
		if h := NewHost(cfg, 5); !h.quietHost {
			t.Errorf("%s: not a quiet host", name)
		}
	}
}

// TestOracleCorpusTakesQuietPaths runs the committed probe-loop entries
// of the FuzzHostMatchesModel corpus and checks that each still takes
// the kernel path it was committed for, so a change to the oracle's
// decoding cannot quietly turn them into scripts that never reach the
// kernel. Each also fails on a mutant of the kernel that its path
// exposes: a dropped record-time Version check (event-on-probing-core),
// a strict drain test (event-due-aborts), a dropped second tenant draw
// (two-poisson), a clock committed before the abort checks
// (abort-keeps-clock).
func TestOracleCorpusTakesQuietPaths(t *testing.T) {
	want := map[string]string{
		"lru-probe-loop-commits":            "commit",
		"lru-partition-probe-loop-commits":  "commit",
		"lru-two-poisson-probe-loop":        "commit",
		"lru-event-on-probing-core":         "commit",
		"plru-probe-loop-tenant-aborts":     "abort",
		"lru-probe-loop-event-due-aborts":   "abort",
		"lru-probe-loop-abort-keeps-clock":  "abort",
		"lru-burst-probe-loop-bypasses":     "bypass",
		"lru-no-jitter-probe-loop-bypasses": "bypass",
		"lru-randomize-probe-loop-bypasses": "bypass",
		"lru-scatter-probe-loop-bypasses":   "bypass",
		"lru-quiesce-probe-loop-bypasses":   "bypass",
	}
	for name, path := range want {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzHostMatchesModel", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus entry: %v", name, err)
		}
		p := runOracleScript(t, []byte(data))
		h, q := p.h, p.quiet
		var took bool
		switch path {
		case "commit":
			took = q.commits > 0
		case "abort":
			took = q.aborts > 0 && q.commits > 0
		case "bypass":
			took = !h.quietHost
		}
		if !took {
			t.Errorf("%s: counts %+v, want the %s path", name, q, path)
		}
	}
}

// TestQuietReplayMatchesGeneralPath runs one probe workload on twin
// hosts, one replaying quiet batches and one with the kernel switched
// off, and requires the same result, clock, counters and next rng draw
// after every batch. Batches of 1–8 lines make the settle rule miss
// often enough that the fallback runs; a fractional issue cost gives
// fractional partial totals; a wide jitter settles almost nothing; the
// busier tenants put Poisson draws between the first access's zero
// test and the step-window cut. Each host must both settle and fall
// back on some committed batches.
func TestQuietReplayMatchesGeneralPath(t *testing.T) {
	fractional := Scaled(4).WithCloudNoise()
	fractional.Lat.Issue, fractional.Lat.Drain[L1Hit] = 1.75, 1.5
	wide := Scaled(4).WithCloudNoise()
	wide.Lat.JitterFrac = 0.5
	cases := map[string]Config{
		"cloud":       Scaled(4).WithCloudNoise(),
		"busy":        Scaled(4).WithNoiseRate(300),
		"two-poisson": Scaled(4).WithTenants(tenant.Spec{Model: "poisson", Rate: 30, LLCProb: 0.5}, tenant.Spec{Model: "poisson", Rate: 200, LLCProb: 1}),
		"fractional":  fractional,
		"wide-jitter": wide,
	}
	for name, cfg := range cases {
		var hosts [2]*Host
		var agents [2]*Agent
		var lines [2][]memory.VAddr
		for i := range hosts {
			hosts[i] = NewHost(cfg, 9)
			agents[i] = hosts[i].NewAgent(0)
			lines[i] = congruentLines(t, agents[i], 8)
		}
		kernel, general := hosts[0], hosts[1]
		general.quietHost = false
		gen := xrand.New(4)
		var q quietTally
		settled, fellBack := 0, 0
		for probe := 0; probe < 20000; probe++ {
			n := 8
			if probe/50%2 == 1 {
				n = 1 + probe/100%8 // a run of one smaller batch size
			}
			if kernel.quiet.matches(agents[0], lines[0][:n], kernel.cores[0].l1) && kernel.settle.derived && kernel.settle.total == kernel.quiet.total {
				if _, _, ok, walked := kernel.quietWalk(kernel.rng.Gen(), n, nil); walked && ok {
					settled++
				} else if walked {
					fellBack++
				}
			}
			kt, km := q.batch(agents[0], lines[0][:n])
			gt, gm := agents[1].AccessParallel(lines[1][:n])
			if kt != gt || km != gm || kernel.clk.Now() != general.clk.Now() || kernel.Accesses != general.Accesses ||
				kernel.NoiseEvents != general.NoiseEvents || peekUint64(kernel.rng) != peekUint64(general.rng) {
				t.Fatalf("%s probe %d (%d lines): kernel (%d, %d) at %d, general path (%d, %d) at %d, or their counters or rng differ",
					name, probe, n, kt, km, kernel.clk.Now(), gt, gm, general.clk.Now())
			}
			idle := clock.Cycles(cfg.Lat.Measure)
			if gen.Intn(64) == 0 {
				idle += clock.Cycles(gen.Intn(3000)) // now and then a longer gap
			}
			drop := km > 0 || gen.Intn(400) == 0
			for i := range hosts {
				hosts[i].clk.Advance(idle)
				if drop {
					for _, va := range lines[i] {
						agents[i].DropL1(va)
					}
				}
			}
		}
		if q.commits == 0 || settled == 0 || fellBack == 0 {
			t.Errorf("%s: %d commits, %d aborts; %d settled and %d fell back; want every path taken", name, q.commits, q.aborts, settled, fellBack)
		}
		t.Logf("%s: %d commits (%d settled, %d fell back), %d aborts", name, q.commits, settled, fellBack, q.aborts)
	}
}

// TestQuietSettleRate pins what the settle rule is for: at the shipped
// latencies the monitor's probe, 8 L1 hits, almost always settles from
// integer compares on its raw draws alone.
func TestQuietSettleRate(t *testing.T) {
	lat := DefaultLatencies()
	r := lat.settleRule(lat.Issue*8 + lat.Drain[L1Hit]*7)
	rng := xrand.New(8)
	const batches = 100_000
	settled := 0
	for i := 0; i < batches; i++ {
		minK1, qualified := uint64(1)<<53, false
		for j := 0; j < 8; j++ {
			k1, k2 := rng.NormDraw()
			minK1 = min(minK1, k1)
			qualified = qualified || r.qualifies(k1, k2)
		}
		if minK1 >= r.k1Hi && qualified {
			settled++
		}
	}
	if rate := float64(settled) / batches; rate < 0.99 {
		t.Fatalf("%d of %d 8×L1 batches settled (%.4f), want at least 99%%", settled, batches, rate)
	} else {
		t.Logf("%d of %d 8×L1 batches settled (%.4f); rule %+v", settled, batches, rate, r)
	}
}

// Settle fuzz inputs select the L1-hit base, the jitter fraction and
// the partial total's fractional part from these.
var (
	settleBases       = []float64{4, 4.5, 1, 0.25, 0, 14, 280, 3.75, 1e6, 1e300}
	settleJitterFracs = []float64{0.06, 1e-3, 0.5, 1e-12, 0.9, 3, 0.0123, 1e6}
	settleFracs       = [8]float64{0, 0.25, 0.5, 0.75, 0.1, 1e-9, 1 - 1e-9, 1.0 / 3}
)

// bucketHolding returns the start of the table bucket holding k1 (k1
// at least 16).
func bucketHolding(k1 uint64) uint64 {
	b := bits.Len64(k1)
	return k1 >> (b - minBoundBits) << (b - minBoundBits)
}

// decodeSettleInput turns fuzz bytes into latencies, a partial total,
// the settle rule derived for them and a batch of raw L1-hit draws.
// Byte 0 selects the base (low nibble) and the jitter fraction (high
// nibble); bytes 1-2 are a little-endian u, the partial being u>>3 plus
// settleFracs[u&7]. Each further jitterTupleLen bytes are a draw: a
// selector byte, then k1 and k2 as little-endian uint64s. The
// selector's low nibble anchors k1 and its high nibble k2 on the rule:
// anchor 0 takes the word's low 53 bits; any other anchor adds the
// word's low 16 bits, signed, to one of the rule's edges (k1: k1Hi,
// k1Lo, the starts of the buckets below them, the start of the bucket
// above k1Lo's; k2: c1, c1+cw, a cos bucket to either side of each,
// u2 = 0 and u2 = ½), so inputs reach every threshold and bucket edge
// whatever the config.
func decodeSettleInput(data []byte) (Latencies, float64, quietSettle, []jitterDraw, bool) {
	if len(data) < 3 {
		return Latencies{}, 0, quietSettle{}, nil, false
	}
	lat := DefaultLatencies()
	lat.Base[L1Hit] = settleBases[int(data[0]&15)%len(settleBases)]
	lat.JitterFrac = settleJitterFracs[int(data[0]>>4)%len(settleJitterFracs)]
	u := binary.LittleEndian.Uint16(data[1:3])
	partial := float64(u>>3) + settleFracs[u&7]
	r := lat.settleRule(partial)
	const mask, bucket = 1<<53 - 1, 1 << 45
	lo := bucketHolding(max(r.k1Lo, 16))
	k1Anchors := []uint64{0, r.k1Hi, r.k1Lo, bucketHolding(max(r.k1Hi, 17) - 1), bucketHolding(max(r.k1Lo, 17) - 1), lo + 1<<(bits.Len64(lo)-minBoundBits)}
	c2 := r.c1 + r.cw
	k2Anchors := []uint64{0, r.c1, c2, r.c1 - bucket, r.c1 + bucket, c2 - bucket, c2 + bucket, 0, 1 << 52}
	var ds []jitterDraw
	for p := data[3:]; len(p) >= jitterTupleLen && len(ds) < 256; p = p[jitterTupleLen:] {
		k1, k2 := binary.LittleEndian.Uint64(p[1:9]), binary.LittleEndian.Uint64(p[9:17])
		if a := int(p[0]&15) % len(k1Anchors); a != 0 {
			k1 = k1Anchors[a] + uint64(int64(int16(k1)))
		}
		if a := int(p[0]>>4) % len(k2Anchors); a != 0 {
			k2 = k2Anchors[a] + uint64(int64(int16(k2)))
		}
		ds = append(ds, jitterDraw{level: L1Hit, k1: k1 & mask, k2: k2 & mask})
	}
	return lat, partial, r, ds, true
}

// FuzzQuietSettleMatchesExact licenses the quiet kernel's settle rule
// on raw draws: whenever a batch settles (every k1 at or above k1Hi,
// some draw qualifying below), the rule's floor pair must be the two
// floors of the batch's exact max jittered latency, for any L1-hit
// base, jitter fraction and integer or fractional partial total. A
// derived rule must also be well formed. Seed corpus in testdata/fuzz/:
// draws at k1Hi and k1Hi-1, at the cos bucket edges c1 and c1+cw ±1, a
// batch with no qualifying draw, and jitter fractions 1e-3 and 0.5.
func FuzzQuietSettleMatchesExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lat, partial, r, ds, ok := decodeSettleInput(data)
		if !ok {
			return
		}
		if r.k1Hi < 1<<53 && !(r.k1Hi >= 16 && r.k1Hi < r.k1Lo && r.k1Lo <= 1<<53 && r.c1 > 0 && r.cw < 1<<53) {
			t.Fatalf("base %v jf %g partial %v: malformed rule %+v", lat.Base[L1Hit], lat.JitterFrac, partial, r)
		}
		minK1, qualified := uint64(1)<<53, false
		for _, d := range ds {
			minK1 = min(minK1, d.k1)
			qualified = qualified || r.qualifies(d.k1, d.k2)
		}
		if !(minK1 >= r.k1Hi && qualified) {
			return
		}
		want := 0.0
		for _, d := range ds {
			want = max(want, lat.jittered(L1Hit, d.k1, d.k2))
		}
		if clock.Cycles(want) != r.maxC || clock.Cycles(partial+want) != r.totalC {
			t.Fatalf("base %v jf %g partial %v: settled at (%d, %d), exact max %v has floors (%d, %d); rule %+v",
				lat.Base[L1Hit], lat.JitterFrac, partial, r.maxC, r.totalC, want, clock.Cycles(want), clock.Cycles(partial+want), r)
		}
	})
}
