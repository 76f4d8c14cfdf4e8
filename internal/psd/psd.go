// Package psd implements target-set identification in the frequency
// domain (§6.2, §7.2): access traces are binned into fixed-rate signals,
// their power spectral density is estimated with Welch's method, and an
// SVM over PSD-derived features decides whether a trace came from the
// victim's target set — the victim's ladder accesses the target line
// with a period of about half an iteration (~4,850 cycles, 0.41 MHz at
// 2 GHz), producing peaks at that base frequency and its harmonics
// (Figure 7) that survive cloud noise far better than time-domain
// features.
package psd

import (
	"math"

	"repro/internal/classify"
	"repro/internal/clock"
	"repro/internal/dsp"
	"repro/internal/probe"
	"repro/internal/xrand"
)

// Params fixes the trace geometry and the victim's expected period.
type Params struct {
	// TraceCycles is the capture window (paper: 500 µs = 1M cycles).
	TraceCycles clock.Cycles
	// BinCycles is the binning rate for the PSD signal.
	BinCycles clock.Cycles
	// ExpectedPeriod is the victim's access period in cycles (~4,850).
	ExpectedPeriod float64
	// MinAccesses/MaxAccesses prefilter traces by detection count before
	// any spectral work (paper: 50–400 per 500 µs trace).
	MinAccesses, MaxAccesses int
}

// DefaultParams mirrors the paper's configuration for a victim with the
// given expected access period in cycles.
func DefaultParams(expectedPeriod float64) Params {
	return Params{
		TraceCycles:    clock.FromMicros(500),
		BinCycles:      500,
		ExpectedPeriod: expectedPeriod,
		MinAccesses:    50,
		MaxAccesses:    400,
	}
}

// Prefilter reports whether the trace's access count is in the plausible
// band for the victim signal.
func (p Params) Prefilter(tr *probe.Trace) bool {
	n := len(tr.Times)
	// Scale the paper's 50–400 band to the actual trace duration.
	scale := float64(tr.Duration()) / float64(p.TraceCycles)
	if scale <= 0 {
		return false
	}
	lo := int(float64(p.MinAccesses) * scale)
	hi := int(float64(p.MaxAccesses) * scale)
	return n >= lo && n <= hi
}

// nBands is the number of coarse spectrum bands in the feature vector.
const nBands = 16

// Features converts a trace into the SVM feature vector: log peak-to-
// floor ratios at the expected base frequency and its first harmonics,
// plus a coarse log-spectrum profile and the normalized access count.
func (p Params) Features(tr *probe.Trace) []float64 {
	signal := dsp.BinTrace(toU64(tr.Times), uint64(tr.Start), uint64(tr.End), uint64(p.BinCycles))
	fs := 1.0 / float64(p.BinCycles) // samples per cycle
	spec := dsp.Welch(signal, fs)

	floor := spec.MedianPower()
	if floor <= 0 {
		floor = 1e-12
	}
	f0 := 1.0 / p.ExpectedPeriod
	tol := f0 * 0.15
	feats := make([]float64, 0, nBands+5)
	for h := 1; h <= 3; h++ {
		peak := spec.PeakNear(float64(h)*f0, tol)
		feats = append(feats, math.Log1p(peak/floor))
	}
	// Off-frequency control band: power between the fundamental and the
	// first harmonic, where the victim signal should be quiet.
	ctrl := spec.PeakNear(1.5*f0, tol)
	feats = append(feats, math.Log1p(ctrl/floor))
	// Coarse band profile.
	nb := len(spec.Power)
	for b := 0; b < nBands; b++ {
		lo := b * nb / nBands
		hi := (b + 1) * nb / nBands
		s := 0.0
		for i := lo; i < hi; i++ {
			s += spec.Power[i]
		}
		feats = append(feats, math.Log1p(s/floor/float64(hi-lo)))
	}
	// Normalized access count.
	feats = append(feats, float64(len(tr.Times))/float64(tr.Duration()/p.BinCycles+1))
	return feats
}

func toU64(ts []clock.Cycles) []uint64 {
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = uint64(t)
	}
	return out
}

// Scanner classifies traces as target / non-target.
type Scanner struct {
	Params Params
	svm    *classify.SVM
}

// TrainScanner fits the SVM on labeled traces (the paper trains on 2,266
// target and 120,103 non-target traces collected across hosts, with 30%
// withheld; our harness scales the volumes down). It returns the scanner
// and the validation metrics.
func TrainScanner(p Params, target, nonTarget []*probe.Trace, rng *xrand.Rand) (*Scanner, classify.Metrics) {
	var x [][]float64
	var y []int
	for _, tr := range target {
		x = append(x, p.Features(tr))
		y = append(y, 1)
	}
	for _, tr := range nonTarget {
		x = append(x, p.Features(tr))
		y = append(y, 0)
	}
	tx, ty, vx, vy := classify.Split(x, y, 0.3, rng)
	svm := classify.NewSVM(classify.SVMConfig{Kernel: classify.PolyKernel(3, 0.5, 1), C: 5})
	ysvm := make([]float64, len(ty))
	for i, v := range ty {
		ysvm[i] = float64(2*v - 1)
	}
	svm.Train(tx, ysvm, rng)
	s := &Scanner{Params: p, svm: svm}
	m := classify.Evaluate(func(f []float64) int {
		if svm.Predict(f) > 0 {
			return 1
		}
		return 0
	}, vx, vy)
	return s, m
}

// Classify reports whether the trace looks like the victim's target set.
// Traces failing the count prefilter are rejected without spectral work
// (they would not even be streamed back for analysis, §7.2).
func (s *Scanner) Classify(tr *probe.Trace) bool {
	if !s.Params.Prefilter(tr) {
		return false
	}
	return s.svm.Predict(s.Params.Features(tr)) > 0
}
