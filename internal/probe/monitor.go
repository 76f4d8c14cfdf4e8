// Package probe implements Prime+Probe monitoring of one LLC/SF set: the
// two Prime+Scope strategies evaluated in the paper (PS-Flush and PS-Alt,
// §6.1) and the paper's contribution, Parallel Probing. It also provides
// the access-trace capture used by target-set identification (§6.2) and
// the covert-channel harness that reproduces Table 5 and Figure 6.
package probe

import (
	"repro/internal/clock"
	"repro/internal/evset"
	"repro/internal/memory"
	"repro/internal/stats"
)

// Strategy selects a monitoring technique.
type Strategy int

// Monitoring strategies (§6.1).
const (
	// Parallel is the paper's Parallel Probing: probe all W lines of a
	// minimal eviction set with overlapped accesses. The prime needs no
	// replacement-state preparation, so it is short and policy-agnostic.
	Parallel Strategy = iota
	// PSFlush is Prime+Scope priming by load + clflush + sequential
	// reload, keeping a single eviction candidate (EVC) to probe.
	PSFlush
	// PSAlt is Prime+Scope priming by an alternating pointer-chase over
	// two eviction sets for the same cache set.
	PSAlt
)

// String names the strategy as in Table 5.
func (s Strategy) String() string {
	switch s {
	case Parallel:
		return "Parallel"
	case PSFlush:
		return "PS-Flush"
	case PSAlt:
		return "PS-Alt"
	default:
		return "unknown"
	}
}

// Monitor observes one SF set for external accesses.
type Monitor struct {
	env   *evset.Env
	strat Strategy
	lines []memory.VAddr
	alt   []memory.VAddr // PS-Alt's second eviction set
	flip  bool

	// detectThresh classifies a probe latency as "external access seen".
	detectThresh float64
	// measure is the host's rdtsc-pair overhead (Latencies.Measure),
	// read once: Host.Config returns the whole config by value.
	measure float64
}

// NewMonitor builds a monitor from a minimal SF eviction set. PS-Alt
// requires a second eviction set for the same SF set via WithAlt.
func NewMonitor(e *evset.Env, strat Strategy, lines []memory.VAddr) *Monitor {
	m := &Monitor{env: e, strat: strat, lines: append([]memory.VAddr(nil), lines...), measure: e.Host().Config().Lat.Measure}
	m.Prime()
	m.calibrate()
	return m
}

// WithAlt supplies the second eviction set used by PS-Alt.
func (m *Monitor) WithAlt(alt []memory.VAddr) *Monitor {
	m.alt = append([]memory.VAddr(nil), alt...)
	return m
}

// calibrate samples quiescent probe latencies and places the detection
// threshold above their bulk, below the one-miss regime.
func (m *Monitor) calibrate() {
	var samples []float64
	for i := 0; i < 32; i++ {
		lat := m.probeLatency()
		samples = append(samples, float64(lat))
		m.Prime()
	}
	med := stats.Median(samples)
	m.detectThresh = med + 22
}

// Prime prepares the monitored set for the next detection and returns
// the prime latency.
func (m *Monitor) Prime() clock.Cycles {
	switch m.strat {
	case Parallel:
		return m.primeParallel()
	case PSFlush:
		return m.primePSFlush()
	case PSAlt:
		return m.primePSAlt()
	}
	return 0
}

// primeParallel traverses the eviction set with overlapped accesses,
// refetching each line so its SF entry is (re)allocated and the set ends
// wholly owned by the attacker, in traversal order. No replacement state
// needs preparing beyond that — the probe tolerates any victim-choice
// policy (§6.1). Two rounds make the state independent of the previous
// probe's outcome.
func (m *Monitor) primeParallel() clock.Cycles {
	a := m.env.Main
	var total clock.Cycles
	for round := 0; round < 2; round++ {
		for _, va := range m.lines {
			a.DropL1(va)
			a.EvictPrivateQuiet(va)
		}
		t, _ := a.AccessParallel(m.lines)
		total += t
	}
	return total
}

// primePSFlush loads the set, flushes it, and reloads it sequentially so
// the first line becomes the eviction candidate (EVC) with a precisely
// known replacement state — at the cost of a long prime.
func (m *Monitor) primePSFlush() clock.Cycles {
	a := m.env.Main
	t1, _ := a.AccessParallel(m.lines)
	t2 := a.FlushAll(m.lines)
	t3 := a.AccessSeqNoChain(m.lines)
	return t1 + t2 + t3
}

// primePSAlt performs one leg of the alternating pointer-chase over the
// two eviction sets: sequentially chasing the other set displaces this
// set's entries in order, leaving the chased set's first line as the EVC.
func (m *Monitor) primePSAlt() clock.Cycles {
	a := m.env.Main
	set := m.lines
	if m.flip && len(m.alt) > 0 {
		set = m.alt
	}
	m.flip = !m.flip
	for _, va := range set {
		a.EvictPrivateQuiet(va)
	}
	return a.AccessSeqNoChain(set)
}

// probeLatency runs one probe and returns its measured latency.
func (m *Monitor) probeLatency() clock.Cycles {
	a := m.env.Main
	switch m.strat {
	case Parallel:
		t, _ := a.AccessParallel(m.lines)
		lat := float64(t) + m.measure
		a.Host().Clock().Advance(clock.Cycles(m.measure))
		return clock.Cycles(lat)
	default:
		// Prime+Scope probes only the EVC (the first line), which stays
		// in the L1 while untouched — the minimal-latency probe.
		lat, _ := a.TimedAccess(m.scopeLine())
		return lat
	}
}

func (m *Monitor) scopeLine() memory.VAddr {
	if m.strat == PSAlt && !m.flip && len(m.alt) > 0 {
		// flip was toggled by the last prime; the chased set's head is
		// the current scope line.
		return m.alt[0]
	}
	return m.lines[0]
}

// Probe checks the monitored set once and reports whether an external
// access was detected since the last prime.
func (m *Monitor) Probe() bool {
	return float64(m.probeLatency()) > m.detectThresh
}

// DetectThreshold returns the calibrated detection threshold.
func (m *Monitor) DetectThreshold() float64 { return m.detectThresh }

// Trace is a sequence of detection timestamps (virtual cycles).
type Trace struct {
	Start, End clock.Cycles
	Times      []clock.Cycles
}

// Duration returns the trace's covered window.
func (t *Trace) Duration() clock.Cycles { return t.End - t.Start }

// Capture monitors the set for the given duration, re-priming after every
// detection (§2.1), and returns the detection timestamps.
func (m *Monitor) Capture(duration clock.Cycles) *Trace {
	clk := m.env.Host().Clock()
	tr := &Trace{Start: clk.Now()}
	end := tr.Start + duration
	m.Prime()
	for clk.Now() < end {
		if m.Probe() {
			tr.Times = append(tr.Times, clk.Now())
			m.Prime()
		}
	}
	tr.End = clk.Now()
	return tr
}
