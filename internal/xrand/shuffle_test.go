package xrand

import "testing"

// shuffleBoth shuffles 0..n-1 with ShuffleUint32 and with the reference
// ShuffleInts on two generators seeded alike, and fails unless both give
// the same permutation and leave the generators in the same state.
func shuffleBoth(t *testing.T, a, b *Rand, n int) {
	t.Helper()
	got := make([]uint32, n)
	want := make([]int, n)
	for i := range got {
		got[i] = uint32(i)
		want[i] = i
	}
	a.ShuffleUint32(got)
	b.ShuffleInts(want)
	for i := range got {
		if int(got[i]) != want[i] {
			t.Fatalf("n=%d: position %d holds %d, ShuffleInts put %d there", n, i, got[i], want[i])
		}
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("n=%d: next Uint64 after shuffle %#x, ShuffleInts left %#x", n, x, y)
	}
}

func TestShuffleUint32MatchesShuffleInts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 1 << 18} {
		for seed := uint64(1); seed <= 5; seed++ {
			shuffleBoth(t, New(seed), New(seed), n)
		}
	}
}

// TestLemireRejection exercises the rejection branch, which random draws
// reach with probability at most n/2^64, on crafted inputs.
func TestLemireRejection(t *testing.T) {
	for _, c := range []struct {
		v, n, j uint64
		ok      bool
	}{
		{0, 3, 0, false},                    // lo = 0, below 2^64 mod 3 = 1: biased, redraw
		{1, 3, 0, true},                     // lo = 3 >= n
		{0xaaaaaaaaaaaaaaab, 3, 2, true},    // lo = 1, exactly the threshold
		{0x5555555555555556, 3, 1, true},    // lo = 2 < n but above the threshold
		{0, 1 << 40, 0, true},               // power of two: threshold 0, never biased
		{^uint64(0), 1, 0, true},            // n = 1 always yields 0
		{2, 1<<63 + 1, 0, false},            // lo = 2, threshold 2^63-1
		{1 << 63, 1<<63 + 1, 1 << 62, true}, // lo = 2^63, in [threshold, n)
	} {
		j, ok := lemire(c.v, c.n)
		if ok != c.ok || (ok && j != c.j) {
			t.Errorf("lemire(%#x, %d) = (%d, %v), want (%d, %v)", c.v, c.n, j, ok, c.j, c.ok)
		}
	}

	// A state with s1 = 0 outputs 0, which n = 3 must reject: Uint64n and
	// the shuffle kernel must both redraw from the same stream.
	crafted := Rand{x: xoshiro{s0: 1, s2: 2, s3: 3}}
	ref := crafted
	if v := ref.Uint64(); v != 0 {
		t.Fatalf("crafted state outputs %#x, want 0", v)
	}
	want, ok := lemire(ref.Uint64(), 3)
	if !ok {
		t.Fatal("crafted state's second draw is rejected too")
	}
	r := crafted
	if j := r.Uint64n(3); j != want || r.x != ref.x {
		t.Fatalf("Uint64n(3) = %d with state %+v, want %d with state %+v", j, r.x, want, ref.x)
	}
	a, b := crafted, crafted
	shuffleBoth(t, &a, &b, 3)
}

// FuzzShuffleMatchesIntn checks the shuffle kernel against the Intn loop
// (ShuffleInts) for any seed and any length up to 1<<16 (seed corpus in
// testdata/fuzz/).
func FuzzShuffleMatchesIntn(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n uint32) {
		n %= 1<<16 + 1
		shuffleBoth(t, New(seed), New(seed), int(n))
	})
}
