package slicehash

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/xrand"
)

func TestRange(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 22, 26, 28} {
		h := New(n)
		rng := xrand.New(uint64(n))
		for i := 0; i < 2000; i++ {
			pa := memory.PAddr(rng.Uint64() & (1<<40 - 1))
			s := h.Slice(pa)
			if s < 0 || s >= n {
				t.Fatalf("n=%d: slice %d out of range", n, s)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, b := New(28), New(28)
	rng := xrand.New(9)
	for i := 0; i < 1000; i++ {
		pa := memory.PAddr(rng.Uint64() & (1<<40 - 1))
		if a.Slice(pa) != b.Slice(pa) {
			t.Fatal("hash is not a pure function of the slice count")
		}
	}
}

func TestLineInvariant(t *testing.T) {
	h := New(28)
	f := func(raw uint64, off uint8) bool {
		pa := memory.PAddr(raw & (1<<40 - 1) &^ 0x3f)
		return h.Slice(pa) == h.Slice(pa|memory.PAddr(off%64))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDistribution(t *testing.T) {
	for _, n := range []int{8, 22, 28} {
		h := New(n)
		rng := xrand.New(uint64(31 * n))
		counts := make([]int, n)
		const samples = 50000
		for i := 0; i < samples; i++ {
			counts[h.Slice(memory.PAddr(rng.Uint64()&(1<<40-1)))]++
		}
		want := samples / n
		for s, c := range counts {
			if c < want/2 || c > want*2 {
				t.Fatalf("n=%d slice %d: count %d far from %d", n, s, c, want)
			}
		}
	}
}

// TestPageOffsetDoesNotPinSlice verifies the security-relevant property:
// controlling only the page offset leaves the slice unpredictable, so the
// attacker's cache uncertainty multiplies by the slice count (§2.2.1).
func TestPageOffsetDoesNotPinSlice(t *testing.T) {
	h := New(28)
	rng := xrand.New(77)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		frame := rng.Uint64() & (1<<28 - 1)
		pa := memory.PAddr(frame<<memory.PageBits | 0x2c0)
		seen[h.Slice(pa)] = true
	}
	if len(seen) != 28 {
		t.Fatalf("same-offset lines reached only %d/28 slices", len(seen))
	}
}

func TestHighBitsParticipate(t *testing.T) {
	h := New(28)
	diff := 0
	for frame := uint64(0); frame < 512; frame++ {
		a := memory.PAddr(frame << memory.PageBits)
		b := a | memory.PAddr(uint64(1)<<33)
		if h.Slice(a) != h.Slice(b) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("bit 33 never changes the slice; high PA bits must participate")
	}
}

func TestPowerOfTwoLinear(t *testing.T) {
	// For power-of-two counts the hash is linear over GF(2):
	// slice(a XOR b XOR c) = slice(a) XOR slice(b) XOR slice(c) for line
	// addresses (offset bits zero).
	h := New(8)
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		a := memory.PAddr(rng.Uint64() & (1<<40 - 1) &^ 0x3f)
		b := memory.PAddr(rng.Uint64() & (1<<40 - 1) &^ 0x3f)
		got := h.Slice(a ^ b)
		want := h.Slice(a) ^ h.Slice(b) ^ h.Slice(0)
		if got != want {
			t.Fatalf("linearity violated: %d != %d", got, want)
		}
	}
}

// TestSliceCountBound pins MaxSlices: at 255 and 256 slices every slice
// receives lines, and a count above the bound, whose slice IDs would
// not fit the lookup table's byte, panics instead of folding slices
// together.
func TestSliceCountBound(t *testing.T) {
	for _, n := range []int{255, MaxSlices} {
		h := New(n)
		seen := make([]bool, n)
		rng := xrand.New(uint64(n))
		for i := 0; i < 1<<16; i++ {
			seen[h.Slice(memory.PAddr(rng.Uint64()&(1<<40-1)))] = true
		}
		for s, ok := range seen {
			if !ok {
				t.Fatalf("%d slices: slice %d received no line", n, s)
			}
		}
	}
	for _, n := range []int{MaxSlices + 1, 300, 1 << 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}
