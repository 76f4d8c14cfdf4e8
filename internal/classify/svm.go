// Package classify implements the two classifiers the paper trains with
// scikit-learn, from scratch on the standard library: a support-vector
// machine with a polynomial kernel (used to recognize target-set PSDs,
// §7.2) and a random forest (used to label iteration boundaries in access
// traces, §7.3).
package classify

import (
	"math"

	"repro/internal/xrand"
)

// Kernel computes k(a, b).
type Kernel func(a, b []float64) float64

// PolyKernel returns the polynomial kernel (gamma*<a,b> + coef0)^degree —
// the kernel family the paper's SVM uses.
func PolyKernel(degree int, gamma, coef0 float64) Kernel {
	return func(a, b []float64) float64 {
		return math.Pow(gamma*dot(a, b)+coef0, float64(degree))
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SVM is a binary soft-margin support-vector machine trained with a
// simplified SMO algorithm. Labels are ±1.
type SVM struct {
	kernel Kernel
	c      float64

	// Learned state: support vectors and their coefficients.
	vecs  [][]float64
	alpha []float64
	label []float64
	b     float64
}

// SVMConfig bundles training hyperparameters.
type SVMConfig struct {
	Kernel Kernel
	C      float64 // soft-margin penalty (default 1)
}

// SMO stopping rule: the KKT tolerance, and the number of consecutive
// passes without a multiplier update after which training stops.
const (
	smoTol    = 1e-3
	smoPasses = 5
)

// NewSVM creates an untrained SVM.
func NewSVM(cfg SVMConfig) *SVM {
	if cfg.Kernel == nil {
		cfg.Kernel = PolyKernel(3, 1, 1)
	}
	if cfg.C <= 0 {
		cfg.C = 1
	}
	return &SVM{kernel: cfg.Kernel, c: cfg.C}
}

// Train fits the SVM on x with labels y (each ±1) using simplified SMO
// (Platt's algorithm without the full heuristic cache). rng drives the
// random second-multiplier choice; the same seed reproduces the model.
func (s *SVM) Train(x [][]float64, y []float64, rng *xrand.Rand) {
	n := len(x)
	if n == 0 || len(y) != n {
		panic("classify: bad training set")
	}
	alpha := make([]float64, n)
	b := 0.0

	// Precompute the kernel matrix when affordable; otherwise fall back
	// to on-demand evaluation.
	var km [][]float64
	if n <= 2048 {
		km = make([][]float64, n)
		for i := range km {
			km[i] = make([]float64, n)
			for j := 0; j <= i; j++ {
				v := s.kernel(x[i], x[j])
				km[i][j] = v
				km[j][i] = v
			}
		}
	}
	k := func(i, j int) float64 {
		if km != nil {
			return km[i][j]
		}
		return s.kernel(x[i], x[j])
	}
	f := func(i int) float64 {
		sum := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				sum += alpha[j] * y[j] * k(j, i)
			}
		}
		return sum
	}

	passes := 0
	for passes < smoPasses {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if (y[i]*ei < -smoTol && alpha[i] < s.c) || (y[i]*ei > smoTol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - y[j]
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(s.c, s.c+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-s.c)
					hi = math.Min(s.c, ai+aj)
				}
				if lo == hi {
					continue
				}
				eta := 2*k(i, j) - k(i, i) - k(j, j)
				if eta >= 0 {
					continue
				}
				ajNew := aj - y[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + y[i]*y[j]*(aj-ajNew)
				b1 := b - ei - y[i]*(aiNew-ai)*k(i, i) - y[j]*(ajNew-aj)*k(i, j)
				b2 := b - ej - y[i]*(aiNew-ai)*k(i, j) - y[j]*(ajNew-aj)*k(j, j)
				switch {
				case aiNew > 0 && aiNew < s.c:
					b = b1
				case ajNew > 0 && ajNew < s.c:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				alpha[i], alpha[j] = aiNew, ajNew
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Keep only support vectors.
	s.vecs = s.vecs[:0]
	s.alpha = s.alpha[:0]
	s.label = s.label[:0]
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			s.vecs = append(s.vecs, x[i])
			s.alpha = append(s.alpha, alpha[i])
			s.label = append(s.label, y[i])
		}
	}
	s.b = b
}

// Decision returns the signed decision value for v.
func (s *SVM) Decision(v []float64) float64 {
	sum := s.b
	for i, sv := range s.vecs {
		sum += s.alpha[i] * s.label[i] * s.kernel(sv, v)
	}
	return sum
}

// Predict returns the predicted label (±1) for v.
func (s *SVM) Predict(v []float64) float64 {
	if s.Decision(v) >= 0 {
		return 1
	}
	return -1
}
