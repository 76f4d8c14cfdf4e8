package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	b := a.Split()
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[a.Uint64()] = true
	}
	for i := 0; i < 1000; i++ {
		if seen[b.Uint64()] {
			t.Fatal("split stream collided with parent")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformity(t *testing.T) {
	r := New(5)
	const buckets = 16
	counts := make([]int, buckets)
	const n = 160000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %f", b, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const rate = 0.5
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.05 {
		t.Fatalf("exponential mean %.3f, want %.3f", mean, 1/rate)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(7)
	for _, mean := range []float64{0.5, 4, 30, 200} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 4*math.Sqrt(mean/n)*10+0.1 {
			t.Fatalf("poisson(%v) mean = %.3f", mean, got)
		}
	}
}

// TestPoissonNaNPanics: Knuth's loop never ends on a NaN mean (no
// product is ever <= exp(-NaN)), so Poisson must fail loudly instead.
func TestPoissonNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Poisson(NaN) returned instead of panicking")
		}
	}()
	New(1).Poisson(math.NaN())
}

func TestPoissonZeroAndNegative(t *testing.T) {
	r := New(8)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("non-positive means must yield 0")
	}
}

// TestNormIsDrawThenAt pins the NormDraw/NormAt split to the one-piece
// Box–Muller sampler it replaced: the same bits, the same stream state.
func TestNormIsDrawThenAt(t *testing.T) {
	a, b := New(10), New(10)
	for i := 0; i < 100000; i++ {
		mean, sd := float64(i%7), 0.5+float64(i%5)
		u1 := b.Float64()
		u2 := b.Float64()
		if u1 < 1e-300 {
			u1 = 1e-300
		}
		want := mean + sd*(math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2))
		if got := a.Norm(mean, sd); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Norm %v, verbatim Box–Muller %v", i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Norm consumed a different number of draws")
	}
	if NormAt(0, 0, 0, 1) != math.Sqrt(-2*math.Log(1e-300)) {
		t.Fatal("NormAt must clamp u1 = 0 to 1e-300")
	}
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("mean %.3f, want 10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("stddev %.3f, want 2", math.Sqrt(variance))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesFills(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 71} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 16 {
			zero := 0
			for _, v := range b {
				if v == 0 {
					zero++
				}
			}
			if zero == n {
				t.Fatalf("Bytes left a %d-byte buffer all zero", n)
			}
		}
	}
}

func TestStreamIsSplitmixSequence(t *testing.T) {
	// Stream(base, i) must equal the i-th draw of a sequential splitmix64
	// generator rooted at base, so random-access and sequential seed
	// derivation agree.
	const base = uint64(0xabcdef)
	state := base
	for i := uint64(0); i < 100; i++ {
		want := splitmix64(&state)
		if got := Stream(base, i); got != want {
			t.Fatalf("Stream(%#x, %d) = %#x, want %#x", base, i, got, want)
		}
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[Stream(1, i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("Stream collided: %d distinct of 1000", len(seen))
	}
}

// poissonRef is the pre-memo Poisson implementation: identical algorithm,
// but always calling math.Exp. The memoized hot path must reproduce its
// draws bit-for-bit — the memo may only skip recomputing a pure function.
func poissonRef(r *Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := r.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func TestPoissonExpMemoExactness(t *testing.T) {
	// Interleave recurring and fresh means (memo hits, misses and slot
	// evictions) and check counts and stream state match the reference on
	// two generators advancing in lockstep.
	a, b := New(42), New(42)
	meanSrc := New(7)
	recurring := []float64{0.001, 0.575, 3.25, 70.5, 64.0001}
	for i := 0; i < 20000; i++ {
		var mean float64
		switch {
		case i%3 == 0:
			mean = recurring[i%len(recurring)]
		case i%3 == 1:
			mean = meanSrc.Float64() * 10
		default:
			mean = meanSrc.Float64() * 100 // exercises the Norm branch too
		}
		got, want := a.Poisson(mean), poissonRef(b, mean)
		if got != want {
			t.Fatalf("draw %d (mean %g): memoized Poisson = %d, reference = %d", i, mean, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("memoized Poisson desynchronized the generator stream")
	}
}

func TestPoissonMemoSurvivesSeed(t *testing.T) {
	// Seed re-derives stream state but must not invalidate memo
	// correctness: the memo is keyed on the mean alone.
	r := New(1)
	r.Poisson(2.5)
	r.Seed(99)
	fresh := New(99)
	for i := 0; i < 100; i++ {
		if got, want := r.Poisson(2.5), fresh.Poisson(2.5); got != want {
			t.Fatalf("draw %d after Seed: got %d, want %d", i, got, want)
		}
	}
}

// FuzzPoissonMatchesKnuth licenses Poisson's exp-free zero test against
// poissonRef, Knuth's loop with math.Exp on every call: for any seed and
// any mean (raw float64 bits, so negatives, subnormals, infinities and
// the 64 cut-over all reach it) the count and the next draw must agree.
// A NaN mean must panic rather than loop. Seed corpus in testdata/fuzz/.
func FuzzPoissonMatchesKnuth(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, meanBits uint64) {
		mean := math.Float64frombits(meanBits)
		a, b := New(seed), New(seed)
		if math.IsNaN(mean) {
			defer func() {
				if recover() == nil {
					t.Fatal("Poisson(NaN) returned instead of panicking")
				}
			}()
			a.Poisson(mean)
			return
		}
		for i := 0; i < 4; i++ {
			if got, want := a.Poisson(mean), poissonRef(b, mean); got != want {
				t.Fatalf("seed %d mean %g draw %d: Poisson %d, Knuth %d", seed, mean, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("seed %d mean %g: Poisson desynchronized the generator stream", seed, mean)
		}
	})
}

// TestGenMatchesRand pins the by-value generator to the Rand methods it
// mirrors: a Gen stepped through Float64, NormDraw and PoissonZero and
// committed with SetGen leaves the stream where the Rand calls leave
// it, a dropped Gen leaves it untouched, and PoissonZero claims a zero
// exactly when Poisson's first test settles one.
func TestGenMatchesRand(t *testing.T) {
	means := []float64{0, -1, 1e-9, 1e-3, 0.5, 1, 63.9, 64, 64.5, 200}
	r, ref := New(3), New(3)
	g := r.Gen()
	for i := 0; i < 30000; i++ {
		switch i % 3 {
		case 0:
			v, g2 := g.Float64()
			if w := ref.Float64(); v != w {
				t.Fatalf("draw %d: Float64 %v on the Gen vs %v", i, v, w)
			}
			g = g2
		case 1:
			k1, k2, g2 := g.NormDraw()
			if w1, w2 := ref.NormDraw(); k1 != w1 || k2 != w2 {
				t.Fatalf("draw %d: NormDraw (%d, %d) on the Gen vs (%d, %d)", i, k1, k2, w1, w2)
			}
			g = g2
		case 2:
			mean := means[i/3%len(means)]
			zero, g2 := g.PoissonZero(mean)
			first := ref.Gen()
			p, _ := first.Float64()
			settles := !(mean > 0) || mean <= 64 && p <= 1-mean-1e-12
			if zero != settles {
				t.Fatalf("draw %d: PoissonZero(%v) = %v, want %v", i, mean, zero, settles)
			}
			n := ref.Poisson(mean)
			if !zero {
				g = ref.Gen() // the caller takes Poisson from the original
				continue
			}
			if n != 0 {
				t.Fatalf("draw %d: PoissonZero(%v) claimed 0, Poisson drew %d", i, mean, n)
			}
			g = g2
		}
		if g != ref.Gen() {
			t.Fatalf("draw %d: the Gen's state left the Rand's", i)
		}
	}
	if r.Gen() != New(3).Gen() {
		t.Fatal("stepping a Gen moved the Rand it was copied from")
	}
	r.SetGen(g)
	if a, b := r.Uint64(), ref.Uint64(); a != b {
		t.Fatalf("after SetGen the next draw is %#x, want %#x", a, b)
	}
}

// genWithNext returns a Gen whose next output is v. xoshiro256**'s
// output depends on s1 alone, as rotl(s1*5, 7)*9, and 5 and 9 are
// invertible modulo 2^64.
func genWithNext(v uint64) Gen {
	inv := func(a uint64) uint64 {
		x := a // correct to 3 bits for odd a; each Newton step doubles that
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	s1 := bits.RotateLeft64(v*inv(9), -7) * inv(5)
	return Gen{xoshiro{s0: 0x9e3779b97f4a7c15, s1: s1, s2: 0xbf58476d1ce4e5b9, s3: 0x94d049bb133111eb}}
}

// TestPoissonCutMatchesPoissonZero pins the integer form of Poisson's
// zero test: for every mean in (0, 64], PoissonZero on a state whose
// next output is v reports zero exactly when Uint53's k = v>>11 is at
// most PoissonZeroCut's cut, drawing that one output, whatever v's low
// 11 bits; k/2^53 is the Float64 of the same draw. The means cover
// both ends of the test (a cut of 0, a bound just below 0), tiny and
// random means; k covers the cut, its neighbours and both extremes.
func TestPoissonCutMatchesPoissonZero(t *testing.T) {
	means := []float64{5e-324, 1e-300, 1e-12, 2.5e-7, 1e-3, 0.5, 1 - 3e-12, 1 - 1e-12, 1 - 5e-13, 1, 1.5, 63.9, 64}
	rng := New(5)
	for i := 0; i < 3000; i++ {
		means = append(means, rng.Float64()*rng.Float64())
	}
	for _, mean := range means {
		cut, ok := PoissonZeroCut(mean)
		ks := []uint64{0, 1, 1<<53 - 1, rng.Uint64() >> 11}
		if ok {
			ks = append(ks, cut, cut+1, max(cut, 1)-1)
		}
		for _, k := range ks {
			for _, low := range []uint64{0, 0x7ff} {
				g := genWithNext(k<<11 | low)
				got, next := g.Uint53()
				if f, _ := g.Float64(); got != k || f != float64(k)/(1<<53) {
					t.Fatalf("Uint53 on output %#x = %d (Float64 %v), want %d", k<<11|low, got, f, k)
				}
				zero, g2 := g.PoissonZero(mean)
				if want := ok && k <= cut; zero != want || g2 != next {
					t.Fatalf("mean %v k %d: PoissonZero %v (one draw: %v), cut %d ok %v says %v", mean, k, zero, g2 == next, cut, ok, want)
				}
			}
		}
	}
	for _, mean := range []float64{0, -1, math.Nextafter(64, 65), 200, math.Inf(1), math.NaN()} {
		if _, ok := PoissonZeroCut(mean); ok {
			t.Errorf("PoissonZeroCut(%v) settles; a mean outside (0, 64] has no cut", mean)
		}
	}
}
