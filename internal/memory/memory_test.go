package memory

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func newHost(t testing.TB) *Host {
	t.Helper()
	return shuffled(64<<20, 1)
}

// shuffled returns a host of the given size whose pool Reset has
// shuffled with seed.
func shuffled(bytes, seed uint64) *Host {
	h := NewHost(bytes)
	h.Reset(xrand.New(seed))
	return h
}

// frameOf returns the frame number of a physical address.
func frameOf(p PAddr) uint64 { return uint64(p) >> PageBits }

func TestPageOffsetPreserved(t *testing.T) {
	h := newHost(t)
	as := NewAddressSpace(h)
	base := as.Map(16)
	f := func(page uint8, off uint16) bool {
		va := base + VAddr(uint64(page%16)<<PageBits|uint64(off%PageSize))
		pa := as.Translate(va)
		return pa.PageOffset() == va.PageOffset()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctPagesDistinctFrames(t *testing.T) {
	h := newHost(t)
	as := NewAddressSpace(h)
	base := as.Map(256)
	seen := map[uint64]bool{}
	for p := 0; p < 256; p++ {
		fr := frameOf(as.Translate(base + VAddr(p<<PageBits)))
		if seen[fr] {
			t.Fatalf("frame %d reused", fr)
		}
		seen[fr] = true
	}
}

func TestFramesLookRandom(t *testing.T) {
	h := newHost(t)
	as := NewAddressSpace(h)
	base := as.Map(64)
	ascending := 0
	prev := uint64(0)
	for p := 0; p < 64; p++ {
		fr := frameOf(as.Translate(base + VAddr(p<<PageBits)))
		if fr == prev+1 {
			ascending++
		}
		prev = fr
	}
	if ascending > 8 {
		t.Fatalf("%d consecutive frames: allocation not randomized", ascending)
	}
}

func TestSeparateAddressSpaces(t *testing.T) {
	h := newHost(t)
	a, b := NewAddressSpace(h), NewAddressSpace(h)
	va, vb := a.Map(4), b.Map(4)
	for p := 0; p < 4; p++ {
		fa := frameOf(a.Translate(va + VAddr(p<<PageBits)))
		fb := frameOf(b.Translate(vb + VAddr(p<<PageBits)))
		if fa == fb {
			t.Fatal("two address spaces share a frame")
		}
	}
}

func TestUnmappedPanics(t *testing.T) {
	h := newHost(t)
	as := NewAddressSpace(h)
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic on unmapped access")
		}
	}()
	as.Translate(0xdead000)
}

func TestBufferLineAt(t *testing.T) {
	h := newHost(t)
	as := NewAddressSpace(h)
	buf := as.Alloc(4)
	va := buf.LineAt(2, 0x340)
	if va.PageOffset() != 0x340 {
		t.Fatalf("offset = %#x", va.PageOffset())
	}
	if va.PageNumber() != buf.Base.PageNumber()+2 {
		t.Fatal("wrong page")
	}
	if buf.Size() != 4*PageSize {
		t.Fatalf("size = %d", buf.Size())
	}
}

func TestBufferBoundsPanic(t *testing.T) {
	h := newHost(t)
	as := NewAddressSpace(h)
	buf := as.Alloc(2)
	for _, fn := range []func(){
		func() { buf.LineAt(2, 0) },    // page out of range
		func() { buf.LineAt(0, 4096) }, // offset out of range
		func() { buf.LineAt(0, 33) },   // not line aligned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAddrHelpers(t *testing.T) {
	pa := PAddr(0x12345f7)
	if pa.Line() != 0x12345c0 {
		t.Fatalf("line = %#x", uint64(pa.Line()))
	}
	if pa.PageOffset() != 0x5f7 {
		t.Fatalf("page offset = %#x", pa.PageOffset())
	}
}

func TestGuardGapBetweenMappings(t *testing.T) {
	h := newHost(t)
	as := NewAddressSpace(h)
	a := as.Map(2)
	b := as.Map(2)
	if b <= a+2*PageSize {
		t.Fatal("mappings not separated by a guard page")
	}
	if as.table[(a+2*PageSize).PageNumber()-vaBase] != 0 {
		t.Fatal("guard page should be unmapped")
	}
	mapped := 0
	for _, e := range as.table {
		if e != 0 {
			mapped++
		}
	}
	if mapped != 4 {
		t.Fatalf("page count = %d", mapped)
	}
}

func TestHostResetReplaysFrameOrder(t *testing.T) {
	fresh := shuffled(1<<20, 3)
	reused := shuffled(1<<20, 44)
	NewAddressSpace(reused).Map(17) // consume some frames
	reused.Reset(xrand.New(3))

	fa := NewAddressSpace(fresh)
	ra := NewAddressSpace(reused)
	fb, rb := fa.Map(32), ra.Map(32)
	for p := 0; p < 32; p++ {
		fpa := fa.Translate(fb + VAddr(p<<PageBits))
		rpa := ra.Translate(rb + VAddr(p<<PageBits))
		if fpa != rpa {
			t.Fatalf("page %d: fresh frame %#x != reset frame %#x", p, fpa, rpa)
		}
	}
}

// framesDigest returns an FNV-1a digest of the first n frames handed
// out by a fresh address space on h.
func framesDigest(h *Host, n int) uint64 {
	as := NewAddressSpace(h)
	base := as.Map(n)
	d := uint64(14695981039346656037)
	for p := 0; p < n; p++ {
		f := frameOf(as.Translate(base + VAddr(p<<PageBits)))
		for b := 0; b < 8; b++ {
			d ^= (f >> (8 * b)) & 0xff
			d *= 1099511628211
		}
	}
	return d
}

// TestFramePermutationPinned pins the frame-pool permutation at its own
// layer: the first 4096 frames a 1 GiB and an 8 GiB host hand out at
// seeds 1-3, fresh and after Reset. Every set mapping in the simulator
// flows from this order, so any change to the shuffle shows up here
// before it shows up in a scenario golden.
func TestFramePermutationPinned(t *testing.T) {
	want := map[uint64][3]uint64{
		1 << 30: {0x86591e2a3456deae, 0xef30754fd695fc78, 0xbaaea17adf156450},
		8 << 30: {0xf76404f3485a0e3c, 0x87c961955e205746, 0x972cfd6b5f9fb067},
	}
	for _, bytes := range []uint64{1 << 30, 8 << 30} {
		reused := shuffled(bytes, 99)
		for s := uint64(1); s <= 3; s++ {
			fresh := framesDigest(shuffled(bytes, s), 4096)
			if fresh != want[bytes][s-1] {
				t.Errorf("%d B host, seed %d: digest %#x, want %#x", bytes, s, fresh, want[bytes][s-1])
			}
			reused.Reset(xrand.New(s))
			if got := framesDigest(reused, 4096); got != fresh {
				t.Errorf("%d B host, seed %d: Reset digest %#x != fresh %#x", bytes, s, got, fresh)
			}
		}
	}
}
