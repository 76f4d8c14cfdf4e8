// Package xrand provides a deterministic, seedable pseudo-random number
// generator and the distribution samplers used throughout the simulator.
//
// All randomness in the repository flows from this package so that every
// experiment is reproducible bit-for-bit given a seed. The generator is
// xoshiro256**, seeded through splitmix64 as recommended by its authors.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; derive independent sub-streams with Split instead of
// sharing one Rand across goroutines.
type Rand struct {
	x xoshiro

	// expMemo caches exp(-mean) for Poisson. The simulation draws Poisson
	// counts with a small set of recurring means (per-set noise windows are
	// quantized to integer cycle counts times a fixed rate), so a tiny
	// direct-mapped memo removes the math.Exp call from the hot path
	// without changing a single output: exp is a pure function of the mean.
	// The memo is lazily allocated on the first Poisson draw and survives
	// Seed — it holds no stream state.
	expMemo *expMemo
}

// expMemoSize is the number of direct-mapped exp(-mean) memo slots. Must
// be a power of two.
const expMemoSize = 256

// expMemo is a direct-mapped cache from math.Float64bits(mean) to
// exp(-mean). A zero key marks an empty slot (mean 0 never reaches the
// memo: Poisson returns early for mean <= 0).
type expMemo struct {
	keys [expMemoSize]uint64
	vals [expMemoSize]float64
}

// expNeg returns exp(-mean) through the memo.
func (r *Rand) expNeg(mean float64) float64 {
	m := r.expMemo
	if m == nil {
		m = &expMemo{}
		r.expMemo = m
	}
	k := math.Float64bits(mean)
	idx := (k * 0x9e3779b97f4a7c15) >> (64 - 8) // fibonacci hash to 8 bits
	if m.keys[idx] == k {
		return m.vals[idx]
	}
	v := math.Exp(-mean)
	m.keys[idx] = k
	m.vals[idx] = v
	return v
}

// splitmix64 advances the 64-bit state and returns the next output. It is
// used for seeding so that similar seeds yield unrelated xoshiro states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream returns the i-th output of the splitmix64 stream rooted at base.
// Neighbouring indices yield statistically unrelated values, so the stream
// is suitable for deriving independent per-trial seeds: workers can pull
// seed i without generating seeds 0..i-1 first, which keeps parallel and
// sequential trial schedules on identical randomness.
func Stream(base, i uint64) uint64 {
	state := base + i*0x9e3779b97f4a7c15
	return splitmix64(&state)
}

// New returns a generator seeded from the given seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator in place to the state New(seed)
// would produce. It exists so long-lived owners (pooled hosts, tenant
// models) can re-derive their streams on reset without allocating.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.x.s0 = splitmix64(&sm)
	r.x.s1 = splitmix64(&sm)
	r.x.s2 = splitmix64(&sm)
	r.x.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four zero outputs in a row, so this is just defensive.
	if r.x.s0|r.x.s1|r.x.s2|r.x.s3 == 0 {
		r.x.s0 = 1
	}
}

// xoshiro is the xoshiro256** state. Four scalar fields rather than an
// array let the compiler keep a local copy entirely in registers, which
// is what ShuffleUint32's loop relies on.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

// next returns the next 64 random bits and the advanced state. It is the
// only copy of the generator step and inlines into every caller; taking
// and returning the state by value keeps a caller's local copy out of
// memory.
func (x xoshiro) next() (uint64, xoshiro) {
	result := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result, x
}

// lemire maps 64 random bits v onto [0, n) by Lemire's multiply-shift:
// j is the high word of v*n, and ok is false when v falls in the biased
// low region and must be redrawn. It is the only copy of the rejection
// rule; the modulo is evaluated only when lo < n, which a random v hits
// with probability n/2^64.
func lemire(v, n uint64) (j uint64, ok bool) {
	hi, lo := bits.Mul64(v, n)
	return hi, lo >= n || lo >= (-n)%n
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() (v uint64) {
	v, r.x = r.x.next()
	return v
}

// Split returns a new generator whose stream is statistically independent
// of the receiver's. The receiver is advanced.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd3833e804f4c574b)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	for {
		if j, ok := lemire(r.Uint64(), n); ok {
			return j
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits onto a uniform float64 in [0, 1).
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher–Yates).
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleUint32 shuffles the slice in place with the same draws and the
// same resulting permutation as ShuffleInts, and leaves the generator in
// the same state. It is the frame-pool kernel: the generator state lives
// in a local copy for the whole loop (registers, not memory) and is
// written back once, and the step and rejection rule inline, so a swap
// costs no function call.
func (r *Rand) ShuffleUint32(p []uint32) {
	x := r.x
	var v uint64
	for i := len(p) - 1; i > 0; i-- {
		n := uint64(i) + 1
		v, x = x.next()
		j, ok := lemire(v, n)
		for !ok {
			v, x = x.next()
			j, ok = lemire(v, n)
		}
		p[i], p[j] = p[j], p[i]
	}
	r.x = x
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1]; avoid log(0).
	return -math.Log(1-u) / rate
}

// Poisson returns a Poisson-distributed sample with the given mean.
// It uses Knuth's method for small means and a normal approximation with
// rejection-free rounding for large means (mean > 64), which is accurate
// enough for background-noise counts where only the bulk matters. It
// panics on a NaN mean, which would otherwise never terminate.
//
// Knuth's first test, u ≤ exp(-mean), is settled without exp when u ≤
// 1-mean-1e-12 (poissonHead); the others continue from the same
// uniform, so the draws and the result are Knuth's exactly.
func (r *Rand) Poisson(mean float64) int {
	p, h, g := r.Gen().poissonHead(mean)
	r.x = g.x
	switch h {
	case headZero:
		return 0
	case headLarge:
		// Normal approximation N(mean, mean), clamped at zero.
		v := r.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := r.expNeg(mean)
	k := 0
	for p > l {
		p *= r.Float64()
		k++
	}
	return k
}

// headVerdict is how far Poisson's first step decides a count.
type headVerdict uint8

const (
	headZero  headVerdict = iota // the count is 0
	headOpen                     // Knuth's loop continues from the uniform
	headLarge                    // mean above 64: the normal approximation
)

// poissonHead is Poisson's first step, the only copy of it: a mean
// that is not positive draws nothing and gives 0, a mean above 64 draws
// nothing and takes the normal approximation, and any other mean draws
// Knuth's first uniform p. That p settles the count at 0 without exp
// when p ≤ 1-mean-1e-12: exp(-m) ≥ 1-m, and 1e-12 covers the rounding
// of both sides. Background windows have tiny means, so most draws stop
// there.
func (g Gen) poissonHead(mean float64) (p float64, h headVerdict, _ Gen) {
	if !(mean > 0) {
		if mean != mean {
			panic("xrand: Poisson with NaN mean")
		}
		return 0, headZero, g
	}
	if mean > 64 {
		return 0, headLarge, g
	}
	p, g = g.Float64()
	if p <= zeroBound(mean) {
		return p, headZero, g
	}
	return p, headOpen, g
}

// zeroBound is the largest first uniform poissonHead settles at zero
// without exp for a mean in (0, 64].
func zeroBound(mean float64) float64 { return 1 - mean - 1e-12 }

// PoissonZeroCut states PoissonZero's test for one mean in (0, 64] as an
// integer compare: the uniform it draws is k/2^53 for the k that
// Gen.Uint53 would return, and it reports true exactly when k <= cut.
// Scaling zeroBound(mean) by 2^53 is exact and k is an integer, so cut
// is that product's floor. ok is false when no draw settles the mean at
// zero: a mean above 64 or NaN, or a bound below 0. A mean that is not
// positive draws nothing and is zero; the caller settles it first.
func PoissonZeroCut(mean float64) (cut uint64, ok bool) {
	if !(mean > 0 && mean <= 64) {
		return 0, false
	}
	t := zeroBound(mean)
	if t < 0 {
		return 0, false
	}
	return uint64(t * (1 << 53)), true
}

// Norm returns a Gaussian sample with the given mean and standard
// deviation, using the Box–Muller transform. It is NormAt(r.NormDraw()).
func (r *Rand) Norm(mean, stddev float64) float64 {
	k1, k2 := r.NormDraw()
	return NormAt(k1, k2, mean, stddev)
}

// NormDraw consumes the two uniforms of one Norm sample and returns
// them raw: 53-bit integers k, each standing for the uniform k/2^53.
// A caller that needs only some samples' values (the maximum of a
// batch) draws every sample in stream order and evaluates later.
func (r *Rand) NormDraw() (k1, k2 uint64) {
	k1, k2, g := r.Gen().NormDraw()
	r.x = g.x
	return k1, k2
}

// NormAt evaluates the Box–Muller transform on the raw uniforms of a
// NormDraw: a pure function, so deferring it never moves the stream.
func NormAt(k1, k2 uint64, mean, stddev float64) float64 {
	u1 := float64(k1) / (1 << 53)
	u2 := float64(k2) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Gen is a by-value copy of a Rand's generator state, for a kernel
// that draws in a loop: the state stays in registers, as in
// ShuffleUint32, because every method returns the advanced copy instead
// of writing through a pointer. A kernel takes a copy with Rand.Gen and
// either commits it with Rand.SetGen, which leaves the Rand exactly as
// the same Rand calls would have, or drops it, which leaves the Rand as
// if nothing had been drawn.
type Gen struct{ x xoshiro }

// Gen returns a copy of the generator state.
func (r *Rand) Gen() Gen { return Gen{r.x} }

// SetGen replaces the generator state with g.
func (r *Rand) SetGen(g Gen) { r.x = g.x }

// Float64 is Rand.Float64 on the copy.
func (g Gen) Float64() (float64, Gen) {
	v, x := g.x.next()
	return unit(v), Gen{x}
}

// Uint53 draws one uniform as its raw 53-bit integer k: the Float64
// the same draw gives is exactly k/2^53.
func (g Gen) Uint53() (uint64, Gen) {
	v, x := g.x.next()
	return v >> 11, Gen{x}
}

// NormDraw is Rand.NormDraw on the copy.
func (g Gen) NormDraw() (k1, k2 uint64, _ Gen) {
	k1, g = g.Uint53()
	k2, g = g.Uint53()
	return k1, k2, g
}

// PoissonZero reports whether Rand.Poisson(mean) on this state returns
// 0 by its first test, drawing what that test draws: nothing for a mean
// that is not positive (zero) or above 64 (not settled), one uniform
// otherwise. When it reports false, Poisson may draw more: the caller
// drops the returned state and calls Rand.Poisson on the original.
func (g Gen) PoissonZero(mean float64) (bool, Gen) {
	_, h, g := g.poissonHead(mean)
	return h == headZero, g
}

// Bytes fills b with random bytes.
func (r *Rand) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
