package attack

import (
	"repro/internal/clock"
	"repro/internal/evset"
	"repro/internal/probe"
	"repro/internal/psd"
	"repro/internal/xrand"
)

// ScanResult reports Step 2 (target-set identification, §7.2).
type ScanResult struct {
	Found bool
	// Set is the eviction set identified as monitoring the target.
	Set *evset.EvictionSet
	// Correct is privileged ground truth: the identified set really maps
	// to the victim's target SF set.
	Correct bool
	// Duration is the scan's virtual time (eviction-set construction
	// excluded, as in the paper's Table 6 accounting).
	Duration clock.Cycles
	// Scanned counts set-traces captured (for the sets/s rate).
	Scanned int
}

// ScanOptions configures the scan.
type ScanOptions struct {
	// Timeout bounds the scan (60 s PageOffset, 900 s WholeSys in §7.2).
	Timeout clock.Cycles
	// VerifyByExtraction enables the false-positive rejection by trial
	// bit extraction (used for WholeSys in the paper).
	VerifyByExtraction bool
	// Extractor is required when VerifyByExtraction is set.
	Extractor *Extractor
}

// ScanForTarget runs Step 2: round-robin over the eviction sets,
// capturing one trace per set per pass while the victim handles
// requests, classifying each trace with the PSD scanner, until the
// target is identified or the timeout expires. Sets are visited in
// random order each pass (the attacker has no better prior).
func (s *Session) ScanForTarget(sets []*evset.EvictionSet, scanner *psd.Scanner, opt ScanOptions) ScanResult {
	start := s.H.Clock().Now()
	deadline := start + opt.Timeout
	res := ScanResult{}
	rng := xrand.New(uint64(start) ^ 0x5ca9)

	order := rng.Perm(len(sets))
	for s.H.Clock().Now() < deadline {
		for _, idx := range order {
			if s.H.Clock().Now() >= deadline {
				break
			}
			set := sets[idx]
			m := probe.NewMonitor(s.Env, probe.Parallel, set.Lines)
			tr := s.CaptureWhileBusy(m, scanner.Params.TraceCycles)
			res.Scanned++
			if !scanner.Classify(tr) {
				continue
			}
			if opt.VerifyByExtraction && opt.Extractor != nil {
				// Reject false positives (e.g. MAdd/MDouble sets) whose
				// traces do not yield plausible nonce bits (§7.2).
				long := s.CaptureWhileBusy(m, s.V.RequestDuration())
				bits := opt.Extractor.Extract(long)
				if BiasedOrEmpty(bits, 8) {
					continue
				}
			}
			res.Found = true
			res.Set = set
			res.Correct = s.Env.Main.SetOf(set.Ta) == s.V.TargetSet()
			res.Duration = s.H.Clock().Now() - start
			return res
		}
		rng.ShuffleInts(order)
	}
	res.Duration = s.H.Clock().Now() - start
	return res
}
