package victim

import (
	"math/big"
	"testing"

	"repro/internal/ec2m"
	"repro/internal/ecdsa"
	"repro/internal/hierarchy"
)

func newVictimHost(t *testing.T) (*hierarchy.Host, *Victim) {
	t.Helper()
	cfg := hierarchy.Scaled(4)
	cfg.Tenants = nil
	h := hierarchy.NewHost(cfg, 41)
	v := New(h, 2, ec2m.Sect163(), 42)
	return h, v
}

func TestTriggerSignGroundTruth(t *testing.T) {
	_, v := newVictimHost(t)
	rec := v.TriggerSign(1000, big.NewInt(777))
	if len(rec.Bits) != len(rec.IterStarts) {
		t.Fatalf("bits=%d iterStarts=%d", len(rec.Bits), len(rec.IterStarts))
	}
	want := ecdsa.NonceBits(rec.Nonce)
	if len(want) != len(rec.Bits) {
		t.Fatalf("ladder bits %d, nonce bits %d", len(rec.Bits), len(want))
	}
	for i := range want {
		if want[i] != rec.Bits[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	if rec.LadderAt < rec.Start || rec.End <= rec.LadderAt {
		t.Fatalf("window ordering broken: start=%d ladder=%d end=%d", rec.Start, rec.LadderAt, rec.End)
	}
	// Signature must be reproducible from the recorded nonce.
	sig2, err := v.Key.SignWithNonce(rec.Digest, rec.Nonce, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sig2.R.Cmp(rec.Sig.R) != 0 || sig2.S.Cmp(rec.Sig.S) != 0 {
		t.Fatal("signature does not recompute from ground truth nonce")
	}
}

func TestScheduledFetchesLandOnTargetSet(t *testing.T) {
	h, v := newVictimHost(t)
	rec := v.TriggerSign(1000, big.NewInt(5))
	// Drain everything by advancing past the request end.
	drain := h.NewAgent(3)
	drain.Idle(rec.End + 1_000_000)
	if h.ScheduledLen() != 0 {
		t.Fatalf("%d events left after request end", h.ScheduledLen())
	}
	// The target line must now be SF-tracked by the victim core.
	pa := v.Agent().Translate(v.Layout.TargetLine)
	if !h.InSF(pa) && !h.InLLC(pa) {
		t.Fatal("target line left no trace in the shared hierarchy")
	}
	if v.TargetSet() != h.SetOf(pa) {
		t.Fatal("TargetSet disagrees with the hierarchy mapping")
	}
}

func TestIterationTiming(t *testing.T) {
	_, v := newVictimHost(t)
	rec := v.TriggerSign(0, big.NewInt(9))
	for i := 1; i < len(rec.IterStarts); i++ {
		d := float64(rec.IterStarts[i] - rec.IterStarts[i-1])
		if d < 8000 || d > 12000 {
			t.Fatalf("iteration %d duration %.0f outside the paper's 8k-12k filter", i, d)
		}
	}
}

func TestActiveFraction(t *testing.T) {
	_, v := newVictimHost(t)
	rec := v.TriggerSign(0, big.NewInt(1))
	ladder := float64(rec.IterStarts[len(rec.IterStarts)-1] - rec.IterStarts[0])
	total := float64(rec.End - rec.Start)
	frac := ladder / total
	if frac < 0.15 || frac > 0.4 {
		t.Fatalf("ladder occupies %.2f of the request, want ~0.25", frac)
	}
}
