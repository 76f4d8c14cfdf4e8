package attack

import (
	"testing"

	"repro/internal/ec2m"
	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/psd"
	"repro/internal/xrand"
)

// newTestSession creates a scaled session: sect163 victim (162 ladder
// iterations per signing), 4-slice host.
func newTestSession(t testing.TB, seed uint64, cloud bool) *Session {
	t.Helper()
	cfg := hierarchy.Scaled(4)
	if cloud {
		cfg = cfg.WithCloudNoise()
	} else {
		cfg.Tenants = nil
	}
	return NewSession(cfg, ec2m.Sect163(), seed)
}

func TestExtractionOnTargetSetQuiet(t *testing.T) {
	s := newTestSession(t, 1, false)
	rng := xrand.New(2)
	p := psd.DefaultParams(s.V.ExpectedAccessPeriod())
	_, td, ts := s.TrainScanner(p, rng)
	t.Logf("training: target=%d nontarget=%d FN=%.3f FP=%.3f",
		ts.TargetTraces, ts.NonTargetTraces, ts.FalseNegative, ts.FalsePositive)
	ex := TrainExtractor(s.V.IterCycles, td.Traces, td.Truth, rng)

	// Extract bits from a dedicated signing.
	tp := s.newTrainingPool()
	lines := tp.linesFor(s.V.TargetSet(), s.H.Config().SFWays)
	if lines == nil {
		t.Fatal("no congruent lines for target set")
	}
	m := s.MonitorSet(&evset.EvictionSet{Ta: lines[0], Lines: lines})
	rec := s.TriggerOneSigning()
	tr := m.Capture(rec.End - s.H.Clock().Now() + 50_000)
	bits := ex.Extract(tr)
	sc := ScoreExtraction(bits, rec, ex.IterCycles)
	t.Logf("extracted %d/%d bits, %d wrong (frac=%.2f err=%.3f)",
		sc.Recovered, sc.Total, sc.Wrong, sc.Fraction(), sc.ErrorRate())
	if sc.Fraction() < 0.6 {
		t.Errorf("extracted fraction %.2f, want >= 0.6 in a quiet environment", sc.Fraction())
	}
	if sc.ErrorRate() > 0.1 {
		t.Errorf("bit error rate %.3f, want <= 0.1 in a quiet environment", sc.ErrorRate())
	}
}

func TestPSDScannerSeparatesTargetQuiet(t *testing.T) {
	s := newTestSession(t, 3, false)
	rng := xrand.New(4)
	p := psd.DefaultParams(s.V.ExpectedAccessPeriod())
	td := s.CollectTrainingData(p, 10, 20)
	if len(td.Target) < 5 || len(td.NonTarget) < 10 {
		t.Fatalf("insufficient training data: %d/%d", len(td.Target), len(td.NonTarget))
	}
	scanner, m := psd.TrainScanner(p, td.Target, td.NonTarget, rng)
	t.Logf("validation FN=%.3f FP=%.3f", m.FalseNegativeRate(), m.FalsePositiveRate())
	if m.FalseNegativeRate() > 0.34 || m.FalsePositiveRate() > 0.2 {
		t.Errorf("scanner too weak: FN=%.2f FP=%.2f", m.FalseNegativeRate(), m.FalsePositiveRate())
	}
	_ = scanner
}

func TestEndToEndCloudNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run is slow")
	}
	train := newTestSession(t, 21, true)
	rng := xrand.New(22)
	p := psd.DefaultParams(train.V.ExpectedAccessPeriod())
	scanner, td, ts := train.TrainScanner(p, rng)
	ex := TrainExtractor(train.V.IterCycles, td.Traces, td.Truth, rng)
	t.Logf("training under noise: FN=%.3f FP=%.3f", ts.FalseNegative, ts.FalsePositive)

	s := newTestSession(t, 23, true)
	opt := DefaultE2EOptions()
	opt.Traces = 3
	res := s.RunEndToEnd(scanner, ex, opt)
	t.Logf("scan: found=%v correct=%v in %.1fms (%d scanned)",
		res.Scan.Found, res.Scan.Correct, res.Scan.Duration.Millis(), res.Scan.Scanned)
	t.Logf("fractions=%v errors=%v total=%.1fms", res.Fractions, res.ErrorRates, res.TotalTime.Millis())
	if !res.SignalFound {
		t.Fatal("end-to-end attack found no signal under cloud noise")
	}
	if res.MedianFraction() < 0.4 {
		t.Errorf("median extracted fraction %.2f under noise, want >= 0.4", res.MedianFraction())
	}
	if res.MeanErrorRate() > 0.15 {
		t.Errorf("bit error rate %.3f under noise, want <= 0.15", res.MeanErrorRate())
	}
}

func TestEndToEndQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run is slow")
	}
	train := newTestSession(t, 5, false)
	rng := xrand.New(6)
	p := psd.DefaultParams(train.V.ExpectedAccessPeriod())
	scanner, td, _ := train.TrainScanner(p, rng)
	ex := TrainExtractor(train.V.IterCycles, td.Traces, td.Truth, rng)

	// Attack a different host/victim with the trained classifiers.
	s := newTestSession(t, 7, false)
	opt := DefaultE2EOptions()
	opt.Traces = 3
	res := s.RunEndToEnd(scanner, ex, opt)
	t.Logf("scan: found=%v correct=%v in %.1fms (%d scanned)",
		res.Scan.Found, res.Scan.Correct, res.Scan.Duration.Millis(), res.Scan.Scanned)
	t.Logf("fractions=%v errors=%v total=%.1fms", res.Fractions, res.ErrorRates, res.TotalTime.Millis())
	if !res.SignalFound {
		t.Fatal("end-to-end attack found no signal")
	}
	if !res.Scan.Correct {
		t.Error("scanner locked onto the wrong set")
	}
	if res.MedianFraction() < 0.5 {
		t.Errorf("median extracted fraction %.2f, want >= 0.5", res.MedianFraction())
	}
}
