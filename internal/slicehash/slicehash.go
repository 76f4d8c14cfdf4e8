// Package slicehash models the undocumented Intel LLC slice hash function.
//
// On Intel server CPUs every physical line address is hashed to one of the
// LLC/SF slices. For power-of-two slice counts the hash is known to be a
// linear (XOR-fold) function of the physical address bits above the line
// offset. For non-power-of-two counts — such as the 28-slice Skylake-SP
// parts that dominate Cloud Run, the 22-slice Xeon Gold 6152 and the
// 26-slice Ice Lake-SP Xeon Gold 5320 — McCalpin's reverse engineering
// shows a two-stage construction: a linear XOR stage producing an
// intermediate index, followed by a non-linear lookup that folds the
// intermediate space onto the available slices.
//
// For the attack algorithms the precise polynomial is irrelevant; what
// matters behaviourally is that (a) the hash depends on many physical
// address bits including those above the page offset, so an unprivileged
// attacker cannot choose or predict a line's slice, and (b) lines
// distribute near-uniformly across slices. This package reproduces both
// properties with a deterministic construction parameterized by the slice
// count, so experiments are reproducible.
package slicehash

import (
	"math/bits"

	"repro/internal/memory"
	"repro/internal/xrand"
)

// Hash maps physical line addresses to slice indices.
//
// The linear stage is an XOR of per-address-bit contributions, so it is
// evaluated as one table load per address byte: fold[k][v] is the
// intermediate index of the line address whose byte k is v and whose
// other bytes are zero. The masks remain the hash's definition; fold is
// derived from them.
type Hash struct {
	nslices int
	masks   []uint64 // one XOR-fold mask per intermediate bit
	fold    [foldBytes][256]uint16
	lookup  []uint8 // intermediate index -> slice (the identity for power-of-two counts)
}

// foldBytes is the number of line-address bytes the masks can touch.
const foldBytes = (maxPABits + 7) / 8

// maxPABits bounds the physical address bits participating in the hash.
// 46 bits covers any realistic host memory size.
const maxPABits = 46

// intermediateBits is the width of the linear stage's output for the
// non-linear construction (4096 entries, as in McCalpin's tables).
const intermediateBits = 12

// MaxSlices is the largest slice count a Hash supports: its lookup
// table holds slice IDs in one byte, so more slices would fold together.
const MaxSlices = 256

// New constructs the hash for the given slice count, from 1 to
// MaxSlices. The function is deterministic: the same count always yields
// the same hash, emulating a fixed (if undocumented) piece of silicon.
func New(nslices int) *Hash {
	if nslices <= 0 {
		panic("slicehash: non-positive slice count")
	}
	if nslices > MaxSlices {
		panic("slicehash: slice count above 256")
	}
	h := &Hash{nslices: nslices}
	// Seed the mask generator from the slice count so distinct SKUs get
	// distinct — but fixed — hash functions.
	rng := xrand.New(0x51CEA5 ^ uint64(nslices)*0x9e3779b97f4a7c15)

	nbits := bitsFor(nslices)
	if 1<<nbits == nslices {
		// Linear: the intermediate index is the slice.
		h.masks = make([]uint64, nbits)
		for i := range h.masks {
			h.masks[i] = randomMask(rng)
		}
		h.lookup = make([]uint8, nslices)
		for i := range h.lookup {
			h.lookup[i] = uint8(i)
		}
		h.buildFold()
		return h
	}
	// Non-linear: linear stage to intermediateBits bits, then a balanced
	// lookup table onto [0, nslices).
	h.masks = make([]uint64, intermediateBits)
	for i := range h.masks {
		h.masks[i] = randomMask(rng)
	}
	size := 1 << intermediateBits
	h.lookup = make([]uint8, size)
	// Fill the table with a balanced, shuffled assignment so every slice
	// receives size/nslices (±1) intermediate values.
	for i := 0; i < size; i++ {
		h.lookup[i] = uint8(i % nslices)
	}
	rng.Shuffle(size, func(i, j int) { h.lookup[i], h.lookup[j] = h.lookup[j], h.lookup[i] })
	h.buildFold()
	return h
}

// buildFold fills the per-byte tables by linearity: an address bit's
// column holds bit i when mask i has that bit, and every table entry is
// the XOR of the columns of its set bits, built from the entry with its
// lowest set bit cleared.
func (h *Hash) buildFold() {
	for k := range h.fold {
		var col [8]uint16
		for j := range col {
			for i, m := range h.masks {
				col[j] |= uint16(m>>(8*k+j)&1) << i
			}
		}
		for v := 1; v < 256; v++ {
			h.fold[k][v] = h.fold[k][v&(v-1)] ^ col[bits.TrailingZeros(uint(v))]
		}
	}
}

// randomMask draws a mask over PA bits [LineBits, maxPABits). Roughly half
// the bits participate in each fold, as in the reverse-engineered
// functions, and at least one bit above the page offset always
// participates so page-offset control never pins the slice.
func randomMask(rng *xrand.Rand) uint64 {
	for {
		m := rng.Uint64() & ((1<<maxPABits - 1) &^ (1<<memory.LineBits - 1))
		if m>>memory.PageBits != 0 { // must involve un-controllable bits
			return m
		}
	}
}

// bitsFor returns ceil(log2(n)).
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Slices returns the number of slices.
func (h *Hash) Slices() int { return h.nslices }

// Slice returns the slice index of the physical line containing pa: the
// linear stage as six table loads (the line offset bits are masked off
// by every mask, so pa needs no rounding), then the lookup.
func (h *Hash) Slice(pa memory.PAddr) int {
	a := uint64(pa)
	f := &h.fold
	idx := f[0][byte(a)] ^ f[1][byte(a>>8)] ^ f[2][byte(a>>16)] ^
		f[3][byte(a>>24)] ^ f[4][byte(a>>32)] ^ f[5][byte(a>>40)]
	return int(h.lookup[idx])
}
