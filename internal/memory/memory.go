// Package memory models physical memory and virtual address translation
// for the simulated host.
//
// The attacker in the paper is an unprivileged container user: it controls
// the low 12 bits of every address (the 4 kB page offset) but has no
// knowledge or control over which physical frame backs each virtual page.
// This package reproduces that constraint: virtual pages map to physical
// frames chosen pseudo-randomly from the host's frame pool, and only the
// privileged simulator (not attack code) can inspect a physical address.
package memory

import (
	"fmt"

	"repro/internal/xrand"
)

// Address geometry constants shared across the repository.
const (
	// LineBits is log2 of the 64 B cache line size.
	LineBits = 6
	// LineSize is the cache line size in bytes.
	LineSize = 1 << LineBits
	// PageBits is log2 of the standard 4 kB page size. Cloud Run
	// containers cannot allocate huge pages (paper §3), so 4 kB pages
	// are the only mapping granularity.
	PageBits = 12
	// PageSize is the page size in bytes.
	PageSize = 1 << PageBits
	// LinesPerPage is the number of cache lines in one page (64).
	LinesPerPage = PageSize / LineSize
)

// VAddr is a virtual address within one process's address space.
type VAddr uint64

// PAddr is a physical address on the host. Attack code must never branch
// on a PAddr; only the simulator and validation code may inspect it.
type PAddr uint64

// PageOffset returns the low 12 bits (shared between VA and PA).
func (v VAddr) PageOffset() uint64 { return uint64(v) & (PageSize - 1) }

// PageNumber returns the virtual page number.
func (v VAddr) PageNumber() uint64 { return uint64(v) >> PageBits }

// PageOffset returns the low 12 bits of the physical address.
func (p PAddr) PageOffset() uint64 { return uint64(p) & (PageSize - 1) }

// Line returns the physical line address (low 6 bits cleared).
func (p PAddr) Line() PAddr { return p &^ (LineSize - 1) }

// Host models the physical memory of one machine: a pool of frames that
// address spaces draw from at page-fault time.
type Host struct {
	freeList   []uint32 // frame numbers in allocation order
	nextVictim int      // index into freeList for sequential carve-outs
}

// MaxFrames is the largest frame pool a host can have: the free list
// numbers frames in uint32.
const MaxFrames = 1 << 32

// NewHost allocates a host with the given physical memory size in bytes.
// Its pool hands out no frame until Reset shuffles it. It panics on a
// host smaller than one page or larger than 2^32 frames.
func NewHost(bytes uint64) *Host {
	if bytes < PageSize {
		panic("memory: host smaller than one page")
	}
	n := bytes / PageSize
	if n > MaxFrames {
		panic("memory: host larger than 2^32 frames")
	}
	return &Host{freeList: make([]uint32, n), nextVictim: int(n)}
}

// Reset returns every frame to the pool and shuffles it with rng, so
// frames are handed out in a pseudo-random order, reproducing the fact
// that a container's pages land on effectively arbitrary frames. The
// order depends on rng alone, not on what the host did before. Address
// spaces created before the reset are invalidated — their pages may
// alias newly handed-out frames — so callers must rebuild them.
//
// The shuffle costs one rng draw per frame (262,144 for a 1 GiB host)
// however few pages a trial maps; see shuffle for why it cannot be lazy.
func (h *Host) Reset(rng *xrand.Rand) { h.shuffle(rng) }

// shuffle refills the pool with a Fisher–Yates permutation of every
// frame drawn from rng and rewinds allocation to its start.
//
// It stays O(frames) on purpose. Allocation hands out positions 0, 1,
// 2, … while backward Fisher–Yates fixes those positions last, so the
// first frame handed out depends on every one of the n-1 draws; a lazy
// shuffle would draw a different permutation and move every set mapping
// in the simulator. What it saves instead is constant factor: the pool
// is uint32 (1 MiB per GiB, so the random swaps stay in L2) and
// xrand.ShuffleUint32 keeps the generator in registers.
func (h *Host) shuffle(rng *xrand.Rand) {
	h.nextVictim = 0
	for i := range h.freeList {
		h.freeList[i] = uint32(i)
	}
	rng.ShuffleUint32(h.freeList)
}

// allocFrame pops one random frame from the pool.
func (h *Host) allocFrame() uint64 {
	if h.nextVictim >= len(h.freeList) {
		panic("memory: host out of physical frames")
	}
	f := h.freeList[h.nextVictim]
	h.nextVictim++
	return uint64(f)
}

// vaBase is the first virtual page number handed out by every address
// space (a typical mmap-ish base). Pages are bump-allocated upward from
// it, so vpn-vaBase densely indexes the page table below.
const vaBase = 0x5600_0000_0000 >> PageBits

// AddressSpace is one process's (container's) virtual address space with
// demand-populated, randomly backed pages.
//
// The page table is a flat slice indexed by vpn-vaBase rather than a map:
// Map only ever bump-allocates contiguous ranges (with one-page guard
// gaps), so the table is dense and Translate — the single hottest
// per-access operation in the simulator — is an indexed load instead of a
// hash lookup. Entries store frame+1; 0 marks an unmapped (or guard)
// page.
type AddressSpace struct {
	host     *Host
	table    []uint64 // vpn-vaBase -> frame+1 (0 = unmapped)
	nextPage uint64   // bump allocator for fresh virtual pages
}

// NewAddressSpace creates an empty address space on the host. The base
// virtual page is offset per address space so that different processes
// use disjoint VA ranges (useful for debugging traces).
func NewAddressSpace(h *Host) *AddressSpace {
	return &AddressSpace{host: h, nextPage: vaBase}
}

// Map allocates n fresh contiguous virtual pages backed by random physical
// frames, and returns the base virtual address.
func (as *AddressSpace) Map(n int) VAddr {
	if n <= 0 {
		panic("memory: Map with non-positive page count")
	}
	base := as.nextPage
	for i := 0; i < n; i++ {
		as.table = append(as.table, as.host.allocFrame()+1)
	}
	as.table = append(as.table, 0) // guard page gap
	as.nextPage += uint64(n) + 1
	return VAddr(base << PageBits)
}

// Translate converts a virtual address to its physical address. It panics
// on an unmapped page — the simulation equivalent of a segfault.
func (as *AddressSpace) Translate(v VAddr) PAddr {
	idx := v.PageNumber() - vaBase
	if idx >= uint64(len(as.table)) || as.table[idx] == 0 {
		panic(fmt.Sprintf("memory: access to unmapped page at %#x", uint64(v)))
	}
	return PAddr((as.table[idx]-1)<<PageBits | v.PageOffset())
}

// Buffer is a convenience wrapper representing a contiguous virtual
// allocation used for candidate addresses.
type Buffer struct {
	Base  VAddr
	Pages int
}

// Alloc maps a buffer of the given number of pages.
func (as *AddressSpace) Alloc(pages int) Buffer {
	return Buffer{Base: as.Map(pages), Pages: pages}
}

// LineAt returns the virtual address of the cache line with the given page
// index and page offset inside the buffer. offset must be line-aligned and
// < PageSize.
func (b Buffer) LineAt(page int, offset uint64) VAddr {
	if page < 0 || page >= b.Pages {
		panic("memory: page index out of buffer")
	}
	if offset >= PageSize || offset%LineSize != 0 {
		panic("memory: bad line offset")
	}
	return b.Base + VAddr(uint64(page)<<PageBits|offset)
}

// Size returns the buffer size in bytes.
func (b Buffer) Size() uint64 { return uint64(b.Pages) * PageSize }
