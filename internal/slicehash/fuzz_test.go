package slicehash

import (
	"math/bits"
	"testing"

	"repro/internal/memory"
	"repro/internal/xrand"
)

// refSlice is Slice by the hash's definition: one parity per XOR mask
// over the line address, then the lookup for non-power-of-two counts.
// It is the oracle for the fold tables.
func refSlice(h *Hash, pa memory.PAddr) int {
	line := uint64(pa.Line())
	idx := 0
	for i, m := range h.masks {
		idx |= (bits.OnesCount64(line&m) & 1) << i
	}
	if 1<<len(h.masks) == h.nslices {
		return idx
	}
	return int(h.lookup[idx])
}

// FuzzSlice fuzzes the hash over slice counts (power-of-two and not) and
// physical addresses, checking the properties every consumer relies on:
//
//   - the slice index is always in [0, nslices), including for
//     non-power-of-two counts where the non-linear lookup stage runs;
//   - the hash is stable: the same address maps to the same slice on
//     repeated calls and on an independently constructed Hash (the
//     "fixed silicon" property that makes experiments reproducible);
//   - all addresses within one line map to the same slice (the hash is a
//     function of the line address only);
//   - the fold tables agree with the parity loop (refSlice).
func FuzzSlice(f *testing.F) {
	// The fuzz body maps n to int(n)%64 + 1 slices, so each seed is the
	// target slice count minus one.
	f.Add(uint8(27), uint64(0x12345678))        // 28: Cloud Run Skylake-SP (non-pow2)
	f.Add(uint8(21), uint64(0))                 // 22: local Xeon Gold 6152 (non-pow2)
	f.Add(uint8(25), uint64(1)<<45)             // 26: Ice Lake-SP, top PA bit
	f.Add(uint8(3), uint64(0xdeadbeef))         // 4: scaled host (pow2, linear stage)
	f.Add(uint8(0), uint64(0xffffffffffffffff)) // 1: degenerate single slice
	f.Add(uint8(63), uint64(1)<<12)             // 64: largest count, page-aligned
	f.Fuzz(func(t *testing.T, n uint8, addr uint64) {
		nslices := int(n)%64 + 1
		h := New(nslices)
		if h.Slices() != nslices {
			t.Fatalf("Slices() = %d, want %d", h.Slices(), nslices)
		}
		pa := memory.PAddr(addr)
		s := h.Slice(pa)
		if s < 0 || s >= nslices {
			t.Fatalf("Slice(%#x) = %d, out of range [0, %d)", addr, s, nslices)
		}
		if want := refSlice(h, pa); s != want {
			t.Fatalf("Slice(%#x) = %d, parity loop says %d", addr, s, want)
		}
		if again := h.Slice(pa); again != s {
			t.Fatalf("Slice(%#x) unstable: %d then %d", addr, s, again)
		}
		// A fresh Hash for the same count is the same function.
		if other := New(nslices).Slice(pa); other != s {
			t.Fatalf("Slice(%#x) differs across constructions: %d vs %d", addr, s, other)
		}
		// Line-offset bits must not influence the slice.
		lineBase := addr &^ (uint64(1)<<memory.LineBits - 1)
		for _, off := range []uint64{0, 1, uint64(1)<<memory.LineBits - 1} {
			if got := h.Slice(memory.PAddr(lineBase | off)); got != s {
				t.Fatalf("offset %d within line %#x changed slice: %d vs %d", off, lineBase, got, s)
			}
		}
	})
}

// TestSliceDistributionNonPow2 complements the fuzzer with a fixed-seed
// uniformity check on the 28-slice non-linear construction: over a
// spread of line addresses, every slice receives a near-uniform share.
func TestSliceDistributionNonPow2(t *testing.T) {
	const nslices = 28
	h := New(nslices)
	counts := make([]int, nslices)
	const lines = 1 << 14
	for i := 0; i < lines; i++ {
		// Stride by lines so many PA bits vary, as real pools do.
		counts[h.Slice(memory.PAddr(uint64(i)<<memory.LineBits))]++
	}
	want := float64(lines) / nslices
	for s, c := range counts {
		if float64(c) < 0.7*want || float64(c) > 1.3*want {
			t.Errorf("slice %d received %d lines, want ~%.0f (±30%%)", s, c, want)
		}
	}
}

// TestSliceMatchesParityLoop checks the fold tables against refSlice
// for every slice count 1–64: on every single address bit (each table
// column alone), and on random addresses over all 64 bits.
func TestSliceMatchesParityLoop(t *testing.T) {
	rng := xrand.New(64)
	for n := 1; n <= 64; n++ {
		h := New(n)
		for b := 0; b < 64; b++ {
			pa := memory.PAddr(1) << b
			if got, want := h.Slice(pa), refSlice(h, pa); got != want {
				t.Fatalf("n=%d bit %d: Slice %d, parity loop %d", n, b, got, want)
			}
		}
		for i := 0; i < 2000; i++ {
			pa := memory.PAddr(rng.Uint64())
			if got, want := h.Slice(pa), refSlice(h, pa); got != want {
				t.Fatalf("n=%d pa %#x: Slice %d, parity loop %d", n, uint64(pa), got, want)
			}
		}
	}
}
