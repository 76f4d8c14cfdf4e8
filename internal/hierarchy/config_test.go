package hierarchy

import (
	"fmt"
	"testing"

	"repro/internal/memory"
)

func TestSkylakeUncertainty(t *testing.T) {
	// Paper §2.2.1: a 28-slice Skylake-SP has U_LLC = 2^5 x 28 = 896 and
	// U_L2 = 2^4 = 16; the system has 57,344 LLC/SF sets.
	cfg := SkylakeSP(28)
	if got := cfg.LLCUncertainty(); got != 896 {
		t.Errorf("U_LLC = %d, want 896", got)
	}
	if got := cfg.L2Uncertainty(); got != 16 {
		t.Errorf("U_L2 = %d, want 16", got)
	}
	if got := cfg.TotalLLCSets(); got != 57344 {
		t.Errorf("total sets = %d, want 57344", got)
	}
	if got := cfg.SetsAtPageOffset(); got != 896 {
		t.Errorf("page-offset sets = %d, want 896", got)
	}
}

func TestGeometryInvariants(t *testing.T) {
	for _, cfg := range []Config{SkylakeSP(28), SkylakeSP(22), IceLakeSP(26), Scaled(4)} {
		// The SF-eviction test keeps Ta plus one SF eviction set in a
		// single L2 set, so L2 associativity must exceed SF's.
		if cfg.L2Ways <= cfg.SFWays {
			t.Errorf("%s: L2 ways %d must exceed SF ways %d", cfg.Name, cfg.L2Ways, cfg.SFWays)
		}
		// The SF must have at least as many ways as the LLC slice, so an
		// LLC eviction set extends to an SF set (paper §3).
		if cfg.SFWays < cfg.LLCWays {
			t.Errorf("%s: SF ways %d below LLC ways %d", cfg.Name, cfg.SFWays, cfg.LLCWays)
		}
		// L2 index bits must be a subset of LLC index bits for candidate
		// filtering (§5.1): L2 sets <= LLC sets per slice x ... in index
		// terms, L2IndexBits <= LLCIndexBits.
		if cfg.L2IndexBits() > cfg.LLCIndexBits() {
			t.Errorf("%s: L2 index wider than LLC index; filtering invalid", cfg.Name)
		}
	}
}

func TestNoisePresets(t *testing.T) {
	c := SkylakeSP(4)
	if c.Tenants[0].Rate != QuiescentNoiseRate {
		t.Error("default preset should be quiescent")
	}
	if c.WithCloudNoise().Tenants[0].Rate != CloudRunNoiseRate {
		t.Error("WithCloudNoise failed")
	}
	if got := c.WithNoiseRate(11.5).Tenants[0].Rate; got != CloudRunNoiseRate {
		t.Errorf("WithNoiseRate(11.5) = %v, want %v", got, CloudRunNoiseRate)
	}
}

func TestHostDeterminism(t *testing.T) {
	run := func() (Level, Level, uint64) {
		h := NewHost(Scaled(4).WithCloudNoise(), 99)
		a := h.NewAgent(0)
		buf := a.Alloc(64)
		var l1, l2 Level
		for i := 0; i < 64; i++ {
			_, l1 = a.Access(buf.LineAt(i, 0))
		}
		a.Idle(1_000_000)
		_, l2 = a.Access(buf.LineAt(0, 0))
		return l1, l2, uint64(h.Clock().Now())
	}
	a1, b1, t1 := run()
	a2, b2, t2 := run()
	if a1 != a2 || b1 != b2 || t1 != t2 {
		t.Fatal("identical seeds must reproduce identical simulations")
	}
}

func TestLLCEvictionBackInvalidatesSharers(t *testing.T) {
	cfg := Scaled(4)
	cfg.Tenants = nil
	h := NewHost(cfg, 123)
	a := h.NewAgent(0)
	helper := h.NewAgentSharing(1, a.AddressSpace())

	// Make one line Shared (LLC-resident with private copies), then fill
	// its LLC set with other shared lines until it is evicted.
	buf := a.Alloc(8192)
	ta := buf.LineAt(0, 0)
	a.LoadShared(helper, ta)
	pa := a.Translate(ta)
	set := h.SetOf(pa)
	if !h.InLLC(pa) || !h.InPrivate(0, pa) {
		t.Fatal("setup failed")
	}
	filled := 0
	for p := 1; p < buf.Pages && filled < cfg.LLCWays+2; p++ {
		va := buf.LineAt(p, 0)
		if h.SetOf(a.Translate(va)) == set {
			a.LoadShared(helper, va)
			filled++
		}
	}
	if filled < cfg.LLCWays {
		t.Skipf("only %d congruent lines found", filled)
	}
	if h.InLLC(pa) {
		t.Fatal("ta should have been evicted from the LLC")
	}
	if h.InPrivate(0, pa) || h.InPrivate(1, pa) {
		t.Fatal("LLC eviction of a shared line must back-invalidate all sharers")
	}
}

func TestParallelBatchCheaperThanSequential(t *testing.T) {
	cfg := Scaled(4)
	cfg.Tenants = nil
	h := NewHost(cfg, 7)
	a := h.NewAgent(0)
	buf := a.Alloc(256)
	seqAddrs := make([]memory.VAddr, 0, 128)
	parAddrs := make([]memory.VAddr, 0, 128)
	for i := 0; i < 128; i++ {
		seqAddrs = append(seqAddrs, buf.LineAt(i, 0))
		parAddrs = append(parAddrs, buf.LineAt(i+128, 0))
	}
	seq := a.AccessSeq(seqAddrs)
	par, misses := a.AccessParallel(parAddrs)
	if misses != 128 {
		t.Fatalf("parallel misses = %d, want 128", misses)
	}
	if float64(seq) < 8*float64(par) {
		t.Fatalf("sequential (%d) should be ~an order of magnitude above parallel (%d)", seq, par)
	}
}

// TestValidateCoreAndSliceCounts pins the core and slice bounds: a core
// ID must stay below noiseOwner, or its SF entries would read as a
// background tenant's and never be back-invalidated, and a host needs
// at least one slice and at most slicehash.MaxSlices, above which slices
// would fold together. NewHost reports either as a hierarchy error.
func TestValidateCoreAndSliceCounts(t *testing.T) {
	for _, tc := range []struct {
		cores, slices int
		want          string // "" = valid
	}{
		{1, 1, ""},
		{254, 28, ""},
		{0, 4, "hierarchy: core count 0 outside [1, 255)"},
		{-1, 4, "hierarchy: core count -1 outside [1, 255)"},
		{255, 4, "hierarchy: core count 255 outside [1, 255)"},
		{256, 4, "hierarchy: core count 256 outside [1, 255)"},
		{4, 0, "hierarchy: slice count 0 is below 1"},
		{4, -2, "hierarchy: slice count -2 is below 1"},
		{4, 256, ""},
		{4, 257, "hierarchy: slice count 257 exceeds 256"},
		{4, 300, "hierarchy: slice count 300 exceeds 256"},
	} {
		cfg := Scaled(4)
		cfg.Cores, cfg.Slices = tc.cores, tc.slices
		err := cfg.Validate()
		if got := fmt.Sprint(err); (err == nil) != (tc.want == "") || (err != nil && got != tc.want) {
			t.Errorf("%d cores, %d slices: Validate = %v, want %q", tc.cores, tc.slices, err, tc.want)
		}
		if tc.want == "" {
			continue
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); msg != tc.want {
					t.Errorf("%d cores, %d slices: NewHost panicked with %q, want %q", tc.cores, tc.slices, msg, tc.want)
				}
			}()
			NewHost(cfg, 1)
		}()
	}
}
