// Package evset implements the paper's eviction-set toolkit: candidate
// set construction, the TestEviction primitive in sequential and parallel
// variants (§4.1), the state-of-the-art pruning algorithms — group testing
// (Gt/GtOp) and Prime+Scope (Ps/PsOp) — and the paper's contributions:
// L2-driven candidate address filtering (§5.1) and the Binary Search-based
// pruning algorithm (§5.2), plus the bulk builders for the SingleSet,
// PageOffset and WholeSys scenarios (§2.2.2–2.2.3).
package evset

import (
	"errors"

	"repro/internal/clock"
	"repro/internal/hierarchy"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Env is the attacker's execution environment: the main thread, the
// helper thread that repeats accesses to force lines into the LLC
// (paper §4.2), calibrated latency thresholds, and instrumentation
// counters.
type Env struct {
	Main   *hierarchy.Agent
	Helper *hierarchy.Agent
	Rng    *xrand.Rand

	// ThreshPrivate separates L1/L2 hits from anything served beyond the
	// private caches; ThreshLLC separates LLC/SF service from DRAM.
	// Both are in measured cycles (including rdtsc overhead).
	ThreshPrivate float64
	ThreshLLC     float64

	// Counters.
	Tests uint64 // TestEviction invocations
}

// calibTrials is the number of lines timed per latency class during
// calibration.
const calibTrials = 64

// NewEnv creates the attacker environment on cores 0 (main) and 1
// (helper) of the host and calibrates the latency thresholds.
func NewEnv(h *hierarchy.Host, seed uint64) *Env {
	main := h.NewAgent(0)
	helper := h.NewAgentSharing(1, main.AddressSpace())
	e := &Env{Main: main, Helper: helper, Rng: xrand.New(seed)}
	e.Calibrate()
	return e
}

// Calibrate measures hit/miss latency distributions the way real attack
// code does — timing accesses to lines in known states — and sets the
// classification thresholds between the observed distributions.
func (e *Env) Calibrate() {
	buf := e.Main.Alloc(calibTrials)
	var l2, llc, dram []float64
	for i := 0; i < calibTrials; i++ {
		va := buf.LineAt(i, 0)
		// DRAM: first-touch of a fresh line after flush.
		e.Main.Flush(va)
		lat, _ := e.Main.TimedAccess(va)
		dram = append(dram, float64(lat))
		// L2/L1: immediate re-access.
		lat, _ = e.Main.TimedAccess(va)
		l2 = append(l2, float64(lat))
		// LLC: share the line, then displace the private copies.
		e.Main.LoadShared(e.Helper, va)
		e.Main.EvictPrivate(va)
		lat, _ = e.Main.TimedAccess(va)
		llc = append(llc, float64(lat))
	}
	hiPrivate := stats.Percentile(l2, 95)
	loLLC := stats.Percentile(llc, 5)
	e.ThreshPrivate = (hiPrivate + loLLC) / 2
	hiLLC := stats.Percentile(llc, 95)
	loDRAM := stats.Percentile(dram, 5)
	e.ThreshLLC = (hiLLC + loDRAM) / 2
}

// Host returns the underlying host.
func (e *Env) Host() *hierarchy.Host { return e.Main.Host() }

// Now returns the current virtual time (unjittered, for bookkeeping).
func (e *Env) Now() clock.Cycles { return e.Host().Clock().Now() }

// --- TestEviction primitives (paper §4.1) ---------------------------------

// Target selects which structure a TestEviction exercises.
type Target int

// Eviction-test targets.
const (
	TargetL2 Target = iota
	TargetLLC
	TargetSF
)

// String names the target.
func (t Target) String() string {
	switch t {
	case TargetL2:
		return "L2"
	case TargetLLC:
		return "LLC"
	case TargetSF:
		return "SF"
	default:
		return "unknown"
	}
}

// TestEviction reports whether accessing the first n candidate addresses
// evicts the target address Ta from the target structure. parallel
// selects the overlapped-access implementation (§4.1); Prime+Scope is
// restricted to the sequential variant by its design.
//
// Environmental noise can evict Ta during the test, producing a
// false-positive result exactly as discussed in §4.1 — this is the
// central failure mode the paper's algorithms must tolerate.
func (e *Env) TestEviction(target Target, ta memory.VAddr, addrs []memory.VAddr, n int, parallel bool) bool {
	e.Tests++
	if n > len(addrs) {
		n = len(addrs)
	}
	switch target {
	case TargetLLC:
		return e.testEvictionLLC(ta, addrs[:n], parallel)
	case TargetSF:
		return e.testEvictionSF(ta, addrs[:n], parallel)
	case TargetL2:
		return e.testEvictionL2(ta, addrs[:n], parallel)
	default:
		panic("evset: unknown target")
	}
}

// testEvictionLLC loads Ta into the LLC (via the helper thread), displaces
// the private copies, traverses the candidates as shared lines and times a
// re-access to Ta: DRAM service means Ta was evicted from the LLC.
func (e *Env) testEvictionLLC(ta memory.VAddr, addrs []memory.VAddr, parallel bool) bool {
	e.Main.LoadShared(e.Helper, ta)
	e.Main.EvictPrivate(ta)
	e.traverseShared(addrs, parallel)
	lat, _ := e.Main.TimedAccess(ta)
	return float64(lat) > e.ThreshLLC
}

// testEvictionSF checks eviction from the Snoop Filter. SF entries are
// allocated only on private fills, and a line that is still L1/L2
// resident never re-allocates its entry, so the test flushes the
// candidate lines first (clflush is unprivileged) to force fresh SF
// allocations — the same reason Prime+Scope's PS-Flush prime pattern
// exists (§6.1). Ta is then loaded Exclusive (SF-tracked), the candidates
// are reloaded, and a timed re-access to Ta tells whether its SF entry
// was evicted: back-invalidation makes the re-access miss the private
// caches.
func (e *Env) testEvictionSF(ta memory.VAddr, addrs []memory.VAddr, parallel bool) bool {
	e.Main.FlushAll(addrs)
	e.Main.Flush(ta)
	e.Main.Access(ta)
	e.traversePrivate(addrs, parallel)
	lat, _ := e.Main.TimedAccess(ta)
	return float64(lat) > e.ThreshPrivate
}

// testEvictionL2 works entirely within the attacker's own core:
// candidates that are L2-congruent with Ta displace it from the L2. L1
// copies are dropped (a pattern detail of the real implementation) so
// every touch reaches the L2 and updates its replacement state.
func (e *Env) testEvictionL2(ta memory.VAddr, addrs []memory.VAddr, parallel bool) bool {
	e.Main.DropL1(ta)
	e.Main.Access(ta)
	for _, a := range addrs {
		e.Main.DropL1(a)
	}
	e.traversePrivate(addrs, parallel)
	lat, _ := e.Main.TimedAccess(ta)
	return float64(lat) > e.ThreshPrivate
}

func (e *Env) traverseShared(addrs []memory.VAddr, parallel bool) {
	if parallel {
		e.Main.LoadSharedAll(e.Helper, addrs)
		return
	}
	e.Main.AccessSeq(addrs)
	for _, va := range addrs {
		e.Helper.Access(va)
	}
}

func (e *Env) traversePrivate(addrs []memory.VAddr, parallel bool) {
	if parallel {
		e.Main.AccessParallel(addrs)
		return
	}
	e.Main.AccessSeq(addrs)
}

// --- Candidate sets --------------------------------------------------------

// Candidates is a pool of attacker-controlled addresses sharing one page
// offset. Because the attacker controls only the page offset (paper
// §2.2.1), every candidate sits on its own page; the pool's backing pages
// are reusable at all 64 line offsets for the WholeSys scenario.
type Candidates struct {
	Buf    memory.Buffer
	Offset uint64
	Addrs  []memory.VAddr
}

// NewCandidates allocates a candidate pool of the given size at the page
// offset, shuffled so that physical congruence is uncorrelated with list
// position.
func NewCandidates(e *Env, size int, offset uint64) *Candidates {
	buf := e.Main.Alloc(size)
	c := &Candidates{Buf: buf, Offset: offset}
	c.Addrs = make([]memory.VAddr, size)
	for i := range c.Addrs {
		c.Addrs[i] = buf.LineAt(i, offset)
	}
	e.Rng.Shuffle(len(c.Addrs), func(i, j int) { c.Addrs[i], c.Addrs[j] = c.Addrs[j], c.Addrs[i] })
	return c
}

// AtOffset re-derives the candidate pool at a different page offset using
// the same backing pages (the δ-shift property of §5.3.1: congruence in
// the L2 is preserved under equal in-page shifts).
func (c *Candidates) AtOffset(offset uint64) *Candidates {
	out := &Candidates{Buf: c.Buf, Offset: offset}
	out.Addrs = make([]memory.VAddr, len(c.Addrs))
	for i, va := range c.Addrs {
		out.Addrs[i] = va - memory.VAddr(c.Offset) + memory.VAddr(offset)
	}
	return out
}

// DefaultPoolSize returns the paper's empirically sufficient candidate
// pool size 3·U·W for the host's LLC/SF (§4.2).
func DefaultPoolSize(cfg hierarchy.Config) int {
	return 3 * cfg.LLCUncertainty() * cfg.SFWays
}

// --- Eviction sets ---------------------------------------------------------

// EvictionSet is a constructed (ideally minimal) eviction set for one
// LLC/SF set, anchored at the target address used to build it.
type EvictionSet struct {
	Ta    memory.VAddr
	Lines []memory.VAddr
}

// Size returns the number of addresses in the set.
func (s *EvictionSet) Size() int { return len(s.Lines) }

// Verified reports, using privileged ground truth, whether the set
// contains at least `need` addresses truly congruent with Ta. Experiment
// harnesses use it to score success rates; attack code never calls it.
func (s *EvictionSet) Verified(a *hierarchy.Agent, need int) bool {
	target := a.SetOf(s.Ta)
	n := 0
	for _, va := range s.Lines {
		if a.SetOf(va) == target {
			n++
		}
	}
	return n >= need
}

// SelfTest re-tests the set the way attack code does (no privileged
// information): it must evict Ta from the target structure in a majority
// of `rounds` trials.
func (s *EvictionSet) SelfTest(e *Env, target Target, rounds int) bool {
	ok := 0
	for i := 0; i < rounds; i++ {
		if e.TestEviction(target, s.Ta, s.Lines, len(s.Lines), true) {
			ok++
		}
	}
	return ok*2 > rounds
}

// ErrExhausted is returned when an algorithm runs out of candidates,
// attempts or time.
var ErrExhausted = errors.New("evset: construction failed")
