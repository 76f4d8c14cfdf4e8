// Package attack assembles the end-to-end, cross-tenant attack of §7:
// Step 1 builds SF eviction sets at the victim's page offset, Step 2
// identifies the target set with the PSD scanner while triggering victim
// executions, and Step 3 monitors the target set with Parallel Probing
// and extracts the ECDSA nonce bits with a random-forest boundary
// classifier. Ground truth flows from the victim package, so every run
// scores itself the way the paper does (extracted-bit fraction and bit
// error rate, §7.3).
package attack

import (
	"math/big"

	"repro/internal/clock"
	"repro/internal/ec2m"
	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/victim"
	"repro/internal/xrand"
)

// Core assignments on the simulated host.
const (
	coreAttacker = 0
	coreHelper   = 1
	coreVictim   = 2
)

// Session is one co-located attacker/victim pair on one host (Step 0,
// co-location, is assumed complete as in the paper's threat model §3).
type Session struct {
	H   *hierarchy.Host
	Env *evset.Env
	V   *victim.Victim
	Rng *xrand.Rand

	// lastRequestEnd tracks victim request scheduling so the victim is
	// kept busy whenever the attacker needs it executing.
	lastRequestEnd clock.Cycles
	// Records accumulates the ground truth of every triggered signing.
	Records []*victim.SignRecord

	// Trace is the owning trial's span track when the run is traced
	// (nil otherwise). Attack steps emit cat="probe" sub-spans through
	// it; like all instrumentation it reads clocks already being read
	// and never touches a rng stream (determinism clause 9).
	Trace *obs.TrialTrace
	// Phases is the owning trial's step recorder (nil for none):
	// RunEndToEnd runs its steps through it.
	Phases *obs.Phases
}

// NewSession builds a host from the config and co-locates an attacker
// environment and a victim using the given curve.
func NewSession(cfg hierarchy.Config, curve *ec2m.Curve, seed uint64) *Session {
	return NewSessionOn(hierarchy.NewHost(cfg, seed), curve, seed)
}

// NewSessionOn co-locates an attacker environment and a victim on an
// existing host — typically one recycled through the experiment engine's
// host pools and already Reset to this trial's seed. The host must be
// freshly built or freshly reset: the session assumes empty caches and a
// clock at zero.
func NewSessionOn(h *hierarchy.Host, curve *ec2m.Curve, seed uint64) *Session {
	env := evset.NewEnv(h, seed^0xa77ac)
	v := victim.New(h, coreVictim, curve, seed^0x71c71)
	return &Session{H: h, Env: env, V: v, Rng: xrand.New(seed ^ 0x5e55)}
}

// BuildEvictionSets runs Step 1 for the PageOffset scenario: eviction
// sets for every SF set reachable from the victim's target page offset.
func (s *Session) BuildEvictionSets(opt evset.BulkOptions) evset.BulkResult {
	cands := evset.NewCandidates(s.Env, evset.DefaultPoolSize(s.H.Config()), s.V.TargetOffset())
	return evset.BuildPageOffset(s.Env, cands, opt)
}

// KeepVictimBusy schedules signing requests so the victim is executing
// through at least the given horizon.
func (s *Session) KeepVictimBusy(until clock.Cycles) {
	now := s.H.Clock().Now()
	t := s.lastRequestEnd
	if t < now {
		t = now + 1000
	}
	for t < until {
		rec := s.V.TriggerSign(t, big.NewInt(0x5eed))
		s.Records = append(s.Records, rec)
		t = rec.End + clock.Cycles(s.Rng.Float64()*20000)
	}
	s.lastRequestEnd = t
}

// TriggerOneSigning schedules a single signing request beginning shortly
// after the current time and returns its ground truth.
func (s *Session) TriggerOneSigning() *victim.SignRecord {
	at := s.H.Clock().Now() + 2000
	if at < s.lastRequestEnd {
		at = s.lastRequestEnd + 2000
	}
	rec := s.V.TriggerSign(at, big.NewInt(0x5eed))
	s.Records = append(s.Records, rec)
	s.lastRequestEnd = rec.End
	return rec
}

// MonitorSet builds a Parallel Probing monitor for one eviction set.
func (s *Session) MonitorSet(set *evset.EvictionSet) *probe.Monitor {
	return probe.NewMonitor(s.Env, probe.Parallel, set.Lines)
}

// CaptureWhileBusy captures a trace of the given duration from the
// monitor while keeping the victim busy.
func (s *Session) CaptureWhileBusy(m *probe.Monitor, duration clock.Cycles) *probe.Trace {
	s.KeepVictimBusy(s.H.Clock().Now() + duration + s.V.RequestDuration())
	return m.Capture(duration)
}

// RecordOverlapping returns the signing record whose ladder overlaps the
// trace window (nil if none) — privileged ground truth for scoring.
func (s *Session) RecordOverlapping(tr *probe.Trace) *victim.SignRecord {
	var best *victim.SignRecord
	bestOverlap := clock.Cycles(0)
	for _, rec := range s.Records {
		if len(rec.IterStarts) == 0 {
			continue
		}
		lo := rec.IterStarts[0]
		hi := rec.IterStarts[len(rec.IterStarts)-1]
		if hi < tr.Start || lo > tr.End {
			continue
		}
		a, b := maxC(lo, tr.Start), minC(hi, tr.End)
		if b-a > bestOverlap {
			bestOverlap = b - a
			best = rec
		}
	}
	return best
}

func maxC(a, b clock.Cycles) clock.Cycles {
	if a > b {
		return a
	}
	return b
}

func minC(a, b clock.Cycles) clock.Cycles {
	if a < b {
		return a
	}
	return b
}
