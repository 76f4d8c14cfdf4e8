package dsp

import "math"

// PSD is a one-sided power spectral density estimate.
type PSD struct {
	// Freqs[i] is the frequency of bin i in cycles per sample times the
	// sampling rate supplied to Welch (i.e. Hz when fs is in Hz).
	Freqs []float64
	// Power[i] is the PSD estimate at Freqs[i].
	Power []float64
}

// Welch estimates the PSD of the real signal x sampled at fs using
// Welch's method [96]: the signal is split into 256-sample Hann-windowed
// segments (clamped to the signal length) overlapping by half, whose
// periodograms are averaged, trading frequency resolution for variance
// reduction — which is what makes the victim's periodic accesses stand
// out through cloud noise (§6.2).
func Welch(x []float64, fs float64) PSD {
	n := len(x)
	if n == 0 {
		return PSD{}
	}
	seg := min(256, n)
	step := seg - seg/2

	win := hann(seg)
	// Window power normalization (sum of squared coefficients).
	u := 0.0
	for _, w := range win {
		u += w * w
	}
	u *= fs

	nbins := seg/2 + 1
	acc := make([]float64, nbins)
	segments := 0
	buf := make([]complex128, seg)
	for start := 0; start+seg <= n; start += step {
		// Detrend (remove the segment mean) and window.
		mean := 0.0
		for _, v := range x[start : start+seg] {
			mean += v
		}
		mean /= float64(seg)
		for i := 0; i < seg; i++ {
			buf[i] = complex((x[start+i]-mean)*win[i], 0)
		}
		FFT(buf)
		for k := 0; k < nbins; k++ {
			re, im := real(buf[k]), imag(buf[k])
			p := (re*re + im*im) / u
			// One-sided spectrum: double the interior bins.
			if k != 0 && !(seg%2 == 0 && k == nbins-1) {
				p *= 2
			}
			acc[k] += p
		}
		segments++
	}
	if segments == 0 {
		return PSD{}
	}
	psd := PSD{Freqs: make([]float64, nbins), Power: make([]float64, nbins)}
	for k := 0; k < nbins; k++ {
		psd.Freqs[k] = float64(k) * fs / float64(seg)
		psd.Power[k] = acc[k] / float64(segments)
	}
	return psd
}

// PeakNear returns the maximum power within ±tol of frequency f.
func (p PSD) PeakNear(f, tol float64) float64 {
	best := 0.0
	for i, fr := range p.Freqs {
		if math.Abs(fr-f) <= tol && p.Power[i] > best {
			best = p.Power[i]
		}
	}
	return best
}

// MedianPower returns the median of the PSD bins — a robust noise-floor
// estimate for peak-to-floor ratios.
func (p PSD) MedianPower() float64 {
	if len(p.Power) == 0 {
		return 0
	}
	s := append([]float64(nil), p.Power...)
	insertionSort(s)
	return s[len(s)/2]
}

func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// BinTrace converts detection timestamps (in cycles) into a binned binary
// signal sampled every binCycles over [start, end): sample i counts the
// detections in its bin. This is how access traces become fixed-rate
// signals for the PSD (§6.2).
func BinTrace(times []uint64, start, end, binCycles uint64) []float64 {
	if end <= start || binCycles == 0 {
		return nil
	}
	n := int((end - start) / binCycles)
	out := make([]float64, n)
	for _, t := range times {
		if t < start || t >= end {
			continue
		}
		i := int((t - start) / binCycles)
		if i < n {
			out[i]++
		}
	}
	return out
}
