// Package dsp provides the signal-processing toolkit used for target-set
// identification in the frequency domain (§6.2): a complex FFT, window
// functions, Welch's power-spectral-density estimate [96], and peak
// utilities.
package dsp

import "math"

// FFT computes the in-place discrete Fourier transform of x. Any length
// is accepted: power-of-two lengths use the radix-2 Cooley–Tukey
// algorithm; other lengths use Bluestein's chirp-z transform.
func FFT(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		fftRadix2(x, false)
		return
	}
	bluestein(x, false)
}

// IFFT computes the inverse DFT of x in place (normalized by 1/n).
func IFFT(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		fftRadix2(x, true)
	} else {
		bluestein(x, true)
	}
	scale := 1 / float64(n)
	for i := range x {
		x[i] *= complex(scale, 0)
	}
}

// fftRadix2 is an iterative in-place radix-2 FFT (n must be a power of
// two). inverse selects the conjugate transform (unnormalized).
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// reducing it to a power-of-two convolution.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign * i*pi*k^2/n). k^2 mod 2n avoids overflow
	// and precision loss for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	conj := func(c complex128) complex128 { return complex(real(c), -imag(c)) }
	b[0] = conj(chirp[0])
	for k := 1; k < n; k++ {
		b[k] = conj(chirp[k])
		b[m-k] = conj(chirp[k])
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// hann returns the n coefficients of the symmetric Hann window that
// tapers each PSD segment (scipy's default and the paper's pipeline).
func hann(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return c
}
