package evset

import (
	"testing"

	"repro/internal/hierarchy"
)

// resetTestConfig is a noisy scaled host so the equivalence check covers
// the Poisson noise stream and timer jitter, not just cache state.
func resetTestConfig() hierarchy.Config {
	return hierarchy.Scaled(4).WithCloudNoise()
}

// buildOutcome runs one eviction-set construction on the host and
// returns everything an experiment would consume from it.
func buildOutcome(h *hierarchy.Host, seed uint64) (ok bool, size int, dur uint64, now uint64, accesses uint64) {
	e := NewEnv(h, seed^0xe0f)
	cands := NewCandidates(e, DefaultPoolSize(h.Config()), 0)
	res := BuildSF(e, BinSearch{}, cands.Addrs[0], cands.Addrs[1:], DefaultOptions())
	ok = res.OK
	if res.Set != nil {
		size = res.Set.Size()
	}
	return ok, size, uint64(res.Duration), uint64(h.Clock().Now()), h.Accesses
}

// TestHostResetEquivalence is the property the parallel engine's host
// pools rely on: a host Reset to a seed must replay, access for access,
// the behaviour of a freshly built host with that seed.
func TestHostResetEquivalence(t *testing.T) {
	cfg := resetTestConfig()
	const seed = 1234

	fresh := hierarchy.NewHost(cfg, seed)
	fOK, fSize, fDur, fNow, fAcc := buildOutcome(fresh, seed)

	// Dirty a pooled host with a different-seed trial, then reset it.
	pooled := hierarchy.NewHost(cfg, 777)
	buildOutcome(pooled, 777)
	pooled.Reset(seed)
	pOK, pSize, pDur, pNow, pAcc := buildOutcome(pooled, seed)

	if fOK != pOK || fSize != pSize || fDur != pDur || fNow != pNow || fAcc != pAcc {
		t.Fatalf("fresh host (ok=%v size=%d dur=%d now=%d acc=%d) != reset host (ok=%v size=%d dur=%d now=%d acc=%d)",
			fOK, fSize, fDur, fNow, fAcc, pOK, pSize, pDur, pNow, pAcc)
	}

	// Resetting twice in a row must be idempotent.
	pooled.Reset(seed)
	qOK, qSize, qDur, qNow, qAcc := buildOutcome(pooled, seed)
	if qOK != fOK || qSize != fSize || qDur != fDur || qNow != fNow || qAcc != fAcc {
		t.Fatal("second reset of the same host diverged")
	}
}

// TestCalibrationThresholds: calibration gives positive thresholds with
// the private-cache threshold below the LLC one.
func TestCalibrationThresholds(t *testing.T) {
	e := NewEnv(hierarchy.NewHost(resetTestConfig(), 9), 9)
	if e.ThreshPrivate <= 0 || e.ThreshLLC <= e.ThreshPrivate {
		t.Fatalf("default calibration produced bad thresholds: %v %v", e.ThreshPrivate, e.ThreshLLC)
	}
}
