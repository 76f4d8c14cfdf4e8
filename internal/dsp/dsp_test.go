package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestFFTKnownValues(t *testing.T) {
	x := []complex128{1, 1, 1, 1, 0, 0, 0, 0}
	FFT(x)
	// DC bin = sum = 4.
	if math.Abs(real(x[0])-4) > 1e-9 || math.Abs(imag(x[0])) > 1e-9 {
		t.Fatalf("DC bin = %v, want 4", x[0])
	}
	// Bin 4 (Nyquist) = 1-1+1-1... = 0.
	if cmplx.Abs(x[4]) > 1e-9 {
		t.Fatalf("Nyquist bin = %v, want 0", x[4])
	}
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 12, 16, 30, 64, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(math.Sin(float64(i)*0.7)+0.3*float64(i%3), math.Cos(float64(i)*1.3))
		}
		want := directDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-6*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func directDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 || len(vals) > 512 {
			return true
		}
		x := make([]complex128, len(vals))
		for i, v := range vals {
			// Clamp pathological magnitudes from quick.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				v = 1
			}
			x[i] = complex(v, 0)
		}
		orig := append([]complex128(nil), x...)
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-6*(1+cmplx.Abs(orig[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 128
		x := make([]complex128, n)
		s := uint64(seed)
		for i := range x {
			s = s*6364136223846793005 + 1442695040888963407
			x[i] = complex(float64(int64(s>>33))/float64(1<<30), 0)
		}
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		X := append([]complex128(nil), x...)
		FFT(X)
		var freqE float64
		for _, v := range X {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE /= float64(n)
		return math.Abs(timeE-freqE) <= 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWelchFindsSinusoid(t *testing.T) {
	fs := 1000.0
	f0 := 120.0
	n := 4096
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*f0*ti) + 0.2*math.Sin(2*math.Pi*333*ti)
	}
	psd := Welch(x, fs)
	peak := psd.PeakNear(f0, 5)
	floor := psd.MedianPower()
	if peak < 50*floor {
		t.Fatalf("sinusoid peak %.3g not well above floor %.3g", peak, floor)
	}
	// The strong peak must beat the weak one.
	weak := psd.PeakNear(333, 5)
	if peak <= weak {
		t.Fatalf("peak at f0 (%.3g) should exceed peak at 333 Hz (%.3g)", peak, weak)
	}
}

func TestWelchFlatForWhiteNoise(t *testing.T) {
	n := 8192
	x := make([]float64, n)
	s := uint64(42)
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(s>>33))/float64(1<<30) - 1
	}
	psd := Welch(x, 1.0)
	maxP, med := 0.0, psd.MedianPower()
	for _, p := range psd.Power[1:] {
		if p > maxP {
			maxP = p
		}
	}
	if maxP > 20*med {
		t.Fatalf("white noise PSD has a spurious peak: max %.3g median %.3g", maxP, med)
	}
}

func TestBinTrace(t *testing.T) {
	times := []uint64{100, 150, 250, 999, 1000}
	out := BinTrace(times, 100, 1100, 100)
	if len(out) != 10 {
		t.Fatalf("len=%d want 10", len(out))
	}
	if out[0] != 2 || out[1] != 1 || out[9] != 1 {
		t.Fatalf("bins = %v", out)
	}
}

func TestWindowsSymmetric(t *testing.T) {
	c := hann(33)
	for i := range c {
		if math.Abs(c[i]-c[len(c)-1-i]) > 1e-12 {
			t.Fatalf("hann window asymmetric at %d", i)
		}
	}
}
