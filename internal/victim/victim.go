// Package victim models the victim container of the end-to-end attack
// (§7): a web service that signs requests with the vulnerable OpenSSL
// 1.0.1e ECDSA Montgomery ladder. The signature computation is performed
// for real (internal/ecdsa on sect571r1's field); what this package adds
// is the binding between the ladder's per-iteration control flow and
// instruction fetches on the simulated cache hierarchy, following the
// memory layout of Figure 8:
//
//   - The monitored cache line is fetched at the start of every ladder
//     iteration (the `if (bit)` header executes there).
//   - In the instrumented layout the paper attacks, the same line is
//     fetched again at the midpoint of an iteration when the bit is 0
//     (the else-direction call sequence returns through it), so zero
//     bits show two accesses per iteration and one bits show one (§7.1).
//   - Other lines (the MAdd/MDouble bodies and their data) are fetched
//     every iteration regardless of the bit; they produce the near-target
//     periodic signals that can fool the PSD scanner (§7.2).
//
// One ladder iteration takes a mostly fixed ~9,700 cycles on the paper's
// 2 GHz hosts; the victim schedules its fetches on the shared virtual
// clock accordingly, with small Gaussian spread.
package victim

import (
	"math/big"

	"repro/internal/clock"
	"repro/internal/ec2m"
	"repro/internal/ecdsa"
	"repro/internal/hierarchy"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// Default timing parameters (paper §6.2/§7.1).
const (
	// DefaultIterCycles is the ladder iteration duration.
	DefaultIterCycles = 9700
	// DefaultIterJitter is the Gaussian sigma of iteration durations.
	DefaultIterJitter = 150
	// DefaultActiveFrac is the fraction of request-handling time spent in
	// the vulnerable ladder (§7.2: about 25%).
	DefaultActiveFrac = 0.25
)

// Layout is the victim library's placement of the relevant cache lines
// in its address space.
type Layout struct {
	// TargetLine is the monitored line (Figure 8b's line 2 in the
	// instrumented, else-direction variant).
	TargetLine memory.VAddr
	// HotLines are additional per-iteration lines (MAdd/MDouble code and
	// data) that create plausible false-positive sets for the scanner.
	HotLines []memory.VAddr
	// WarmLines are request-handling (non-ladder) lines touched during
	// the preamble/postamble of each request.
	WarmLines []memory.VAddr
}

// Victim is one victim container instance.
type Victim struct {
	h     *hierarchy.Host
	agent *hierarchy.Agent
	rng   *xrand.Rand

	Curve  *ec2m.Curve
	Key    *ecdsa.PrivateKey
	Layout Layout

	IterCycles float64
	IterJitter float64
	ActiveFrac float64
}

// SignRecord is the ground truth of one signing request: the signature,
// the nonce, the ladder bits in visit order, and the scheduled start time
// of every iteration.
type SignRecord struct {
	Digest     *big.Int
	Sig        ecdsa.Signature
	Nonce      *big.Int
	Bits       []uint
	IterStarts []clock.Cycles
	LadderAt   clock.Cycles // first iteration start
	Start, End clock.Cycles // whole request window
}

// New creates a victim on the given core with a fresh address space and
// key pair on the curve.
func New(h *hierarchy.Host, core int, curve *ec2m.Curve, seed uint64) *Victim {
	rng := xrand.New(seed)
	agent := h.NewAgent(core)
	v := &Victim{
		h: h, agent: agent, rng: rng,
		Curve:      curve,
		Key:        ecdsa.GenerateKey(curve, rng),
		IterCycles: DefaultIterCycles,
		IterJitter: DefaultIterJitter,
		ActiveFrac: DefaultActiveFrac,
	}
	// The library is loaded once at container start and keeps its VA→PA
	// mapping for the container's lifetime (§7.1). One page holds the
	// ladder code (target + hot lines at fixed offsets), a second holds
	// request-handling code.
	lib := agent.Alloc(2)
	v.Layout.TargetLine = lib.LineAt(0, 0x2c0) // arbitrary fixed offset
	for _, off := range []uint64{0x300, 0x380, 0x440} {
		v.Layout.HotLines = append(v.Layout.HotLines, lib.LineAt(0, off))
	}
	for _, off := range []uint64{0x080, 0x500} {
		v.Layout.WarmLines = append(v.Layout.WarmLines, lib.LineAt(1, off))
	}
	return v
}

// Agent returns the victim's agent (privileged; experiments use it for
// ground-truth set resolution).
func (v *Victim) Agent() *hierarchy.Agent { return v.agent }

// TargetOffset returns the page offset of the monitored line — the
// information the PageOffset attacker derives from the public binary.
func (v *Victim) TargetOffset() uint64 { return v.Layout.TargetLine.PageOffset() }

// TargetSet returns the monitored line's LLC/SF set (privileged ground
// truth for scoring scans).
func (v *Victim) TargetSet() hierarchy.SetID { return v.agent.SetOf(v.Layout.TargetLine) }

// schedule enqueues one victim code fetch.
func (v *Victim) schedule(t clock.Cycles, va memory.VAddr) {
	v.h.Schedule(hierarchy.Event{
		Time: t,
		Core: v.agent.Core(),
		PA:   v.agent.Translate(va),
	})
}

// TriggerSign runs one signing request starting at the given virtual
// time: a preamble of request handling, the vulnerable ladder, and a
// postamble, sized so the ladder occupies ActiveFrac of the request.
// All cache activity is scheduled on the host's event queue; the ground
// truth is returned immediately.
func (v *Victim) TriggerSign(at clock.Cycles, digest *big.Int) *SignRecord {
	nonce := ecdsa.RandScalar(v.Curve.N, v.rng)
	return v.TriggerSignWithNonce(at, digest, nonce)
}

// TriggerSignWithNonce is TriggerSign with a caller-chosen nonce.
func (v *Victim) TriggerSignWithNonce(at clock.Cycles, digest, nonce *big.Int) *SignRecord {
	rec := &SignRecord{Digest: digest, Nonce: nonce, Start: at}

	// Execute the real signer; the hook only collects the bit sequence
	// (the computation is instantaneous in virtual time — its cost is
	// modelled by the schedule below).
	sig, err := v.Key.SignWithNonce(digest, nonce, func(s ec2m.LadderStep) {
		rec.Bits = append(rec.Bits, s.Bit)
	})
	if err != nil {
		// Unusable nonce: the service would redraw; keep the record
		// honest by re-triggering with a fresh nonce.
		return v.TriggerSign(at, digest)
	}
	rec.Sig = sig

	ladderDur := v.IterCycles * float64(len(rec.Bits))
	totalDur := ladderDur / v.ActiveFrac
	// The ladder sits at a uniformly random position inside the request
	// window — the attacker cannot synchronize with it (§7.2).
	slack := totalDur - ladderDur
	preDur := v.rng.Float64() * slack
	ladderAt := at + clock.Cycles(preDur)
	rec.LadderAt = ladderAt

	// Preamble/postamble: sparse warm-line activity.
	for t := float64(at); t < float64(at)+totalDur; t += 12000 {
		line := v.Layout.WarmLines[int(t/12000)%len(v.Layout.WarmLines)]
		v.schedule(clock.Cycles(t), line)
	}

	// The ladder itself.
	t := float64(ladderAt)
	for _, bit := range rec.Bits {
		dur := v.rng.Norm(v.IterCycles, v.IterJitter)
		if dur < v.IterCycles/2 {
			dur = v.IterCycles / 2
		}
		start := clock.Cycles(t)
		rec.IterStarts = append(rec.IterStarts, start)
		// Iteration header: the `if (bit)` line.
		v.schedule(start, v.Layout.TargetLine)
		// Per-iteration hot lines (MAdd/MDouble bodies), both branch
		// directions touch them.
		v.schedule(start+clock.Cycles(dur*0.25), v.Layout.HotLines[0])
		v.schedule(start+clock.Cycles(dur*0.6), v.Layout.HotLines[1])
		v.schedule(start+clock.Cycles(dur*0.85), v.Layout.HotLines[2])
		if bit == 0 {
			// Instrumented layout: the else direction re-fetches the
			// monitored line at the iteration midpoint (§7.1).
			v.schedule(start+clock.Cycles(dur*0.5), v.Layout.TargetLine)
		}
		t += dur
	}
	rec.End = clock.Cycles(t + (totalDur - preDur - ladderDur))
	return rec
}

// RequestDuration returns the expected duration of one request.
func (v *Victim) RequestDuration() clock.Cycles {
	bits := v.Curve.N.BitLen() - 1
	return clock.Cycles(v.IterCycles * float64(bits) / v.ActiveFrac)
}

// ExpectedAccessPeriod returns the victim's characteristic access period
// to the target line: about half an iteration (§6.2 — the midpoint
// access of zero bits halves the period), i.e. ~4,850 cycles, giving the
// 0.41 MHz base frequency of Figure 7.
func (v *Victim) ExpectedAccessPeriod() float64 { return v.IterCycles / 2 }
