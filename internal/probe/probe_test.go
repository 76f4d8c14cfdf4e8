package probe

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/memory"
)

// setup builds an attacker environment plus a minimal SF eviction set,
// a second (alt) set for PS-Alt, and a congruent sender line.
func setup(t testing.TB, seed uint64, cloud bool) (*evset.Env, []memory.VAddr, []memory.VAddr, memory.PAddr) {
	t.Helper()
	cfg := hierarchy.Scaled(4)
	if cloud {
		cfg = cfg.WithCloudNoise()
	} else {
		cfg.Tenants = nil
	}
	h := hierarchy.NewHost(cfg, seed)
	e := evset.NewEnv(h, seed^0x77)
	// Twice the default pool: this harness also needs a second eviction
	// set (PS-Alt) plus a sender line from the same SF set.
	cands := evset.NewCandidates(e, 2*evset.DefaultPoolSize(cfg), 0)
	ta := cands.Addrs[0]
	res := evset.BuildSF(e, evset.BinSearch{}, ta, cands.Addrs[1:], evset.DefaultOptions())
	if !res.OK {
		t.Fatal("could not build eviction set for probe test")
	}
	// Privileged ground truth: gather more congruent lines for the alt
	// set and the sender (the paper's covert experiment also has sender
	// and receiver agree on the target set).
	target := e.Main.SetOf(ta)
	inSet := map[memory.VAddr]bool{}
	for _, va := range res.Set.Lines {
		inSet[va] = true
	}
	var extra []memory.VAddr
	for _, va := range cands.Addrs {
		if va != ta && !inSet[va] && e.Main.SetOf(va) == target {
			extra = append(extra, va)
		}
	}
	if len(extra) < cfg.SFWays+1 {
		t.Fatalf("not enough spare congruent lines: %d", len(extra))
	}
	alt := extra[:cfg.SFWays]
	sender := e.Main.Translate(extra[cfg.SFWays])
	return e, res.Set.Lines, alt, sender
}

func TestParallelProbingDetectsSender(t *testing.T) {
	e, lines, _, sender := setup(t, 11, false)
	m := NewMonitor(e, Parallel, lines)
	res := RunCovertChannel(e, m, 2, sender, 10000, 200)
	t.Logf("sent=%d detected=%d thresh=%.0f probeLat(mean)=%.0f primeLat(mean)=%.0f nprobe=%d",
		res.Sent, res.Detected, m.DetectThreshold(), mean(res.ProbeLatency), mean(res.PrimeLatency), len(res.ProbeLatency))
	if res.DetectionRate < 0.85 {
		t.Fatalf("parallel probing detection rate = %.2f, want >= 0.85", res.DetectionRate)
	}
}

func TestStrategyOrderingAtShortInterval(t *testing.T) {
	// With a 2k-cycle interval the paper finds Parallel >> PS-Flush >
	// PS-Alt (Figure 6), driven by prime latency.
	rates := map[Strategy]float64{}
	for _, s := range []Strategy{Parallel, PSFlush, PSAlt} {
		e, lines, alt, sender := setup(t, 13, false)
		m := NewMonitor(e, s, lines).WithAlt(alt)
		res := RunCovertChannel(e, m, 2, sender, 2000, 300)
		rates[s] = res.DetectionRate
	}
	t.Logf("rates: parallel=%.2f ps-flush=%.2f ps-alt=%.2f", rates[Parallel], rates[PSFlush], rates[PSAlt])
	if rates[Parallel] <= rates[PSFlush] {
		t.Errorf("parallel (%.2f) should beat PS-Flush (%.2f) at short intervals", rates[Parallel], rates[PSFlush])
	}
	if rates[Parallel] < 0.5 {
		t.Errorf("parallel detection rate %.2f too low at 2k interval", rates[Parallel])
	}
}

func TestPrimeLatencyOrdering(t *testing.T) {
	// Table 5: prime latency PS-Flush > PS-Alt > Parallel; probe latency
	// of Prime+Scope slightly below Parallel.
	e, lines, alt, sender := setup(t, 17, false)
	lat := map[Strategy]float64{}
	probeLat := map[Strategy]float64{}
	for _, s := range []Strategy{Parallel, PSFlush, PSAlt} {
		m := NewMonitor(e, s, lines).WithAlt(alt)
		res := RunCovertChannel(e, m, 2, sender, 50000, 50)
		lat[s] = mean(res.PrimeLatency)
		probeLat[s] = mean(res.ProbeLatency)
	}
	t.Logf("prime: parallel=%.0f ps-flush=%.0f ps-alt=%.0f", lat[Parallel], lat[PSFlush], lat[PSAlt])
	t.Logf("probe: parallel=%.0f ps-flush=%.0f ps-alt=%.0f", probeLat[Parallel], probeLat[PSFlush], probeLat[PSAlt])
	if !(lat[PSFlush] > lat[PSAlt] && lat[PSAlt] > lat[Parallel]) {
		t.Errorf("prime latency ordering violated: %v", lat)
	}
	if probeLat[PSFlush] >= probeLat[Parallel] {
		t.Errorf("PS probe latency (%.0f) should be below parallel probe (%.0f)", probeLat[PSFlush], probeLat[Parallel])
	}
}

func TestCaptureRecordsDetections(t *testing.T) {
	e, lines, _, sender := setup(t, 19, false)
	m := NewMonitor(e, Parallel, lines)
	h := e.Host()
	// Schedule 20 sender accesses 5k cycles apart, then capture.
	base := h.Clock().Now() + 5000
	for i := 0; i < 20; i++ {
		h.Schedule(hierarchy.Event{Time: base + clock.Cycles(i*5000), Core: 2, PA: sender, Refetch: true})
	}
	tr := m.Capture(150000)
	if len(tr.Times) < 15 {
		t.Fatalf("captured %d detections, want >= 15", len(tr.Times))
	}
	for i := 1; i < len(tr.Times); i++ {
		if tr.Times[i] < tr.Times[i-1] {
			t.Fatal("detection timestamps not monotonic")
		}
	}
}

// TestCovertSeriesPinned pins the covert channel's latency series at
// their own layer: a digest of the PrimeLatency and ProbeLatency float
// bits (lengths included) and of the counts, for each strategy on one
// noisy cloud host. Table 5 reads these series; a change to how they
// are recorded shows up here before it shows up in the table5 golden.
func TestCovertSeriesPinned(t *testing.T) {
	want := map[Strategy]uint64{
		Parallel: 0xc33417c1fed7b9a6,
		PSFlush:  0x68d5e5624b6f1f69,
		PSAlt:    0x3ea861ad1f17bbb3,
	}
	for _, s := range []Strategy{Parallel, PSFlush, PSAlt} {
		e, lines, alt, sender := setup(t, 23, true)
		m := NewMonitor(e, s, lines).WithAlt(alt)
		res := RunCovertChannel(e, m, 2, sender, 5000, 40)
		h := fnv.New64a()
		word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		word(uint64(res.Sent))
		word(uint64(res.Detected))
		word(uint64(res.Detections))
		for _, series := range [][]float64{res.PrimeLatency, res.ProbeLatency} {
			word(uint64(len(series)))
			for _, x := range series {
				word(math.Float64bits(x))
			}
		}
		if got := h.Sum64(); got != want[s] {
			t.Errorf("%s: digest %#x, want %#x (%d primes, %d probes, %d/%d detected)",
				s, got, want[s], len(res.PrimeLatency), len(res.ProbeLatency), res.Detected, res.Sent)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
