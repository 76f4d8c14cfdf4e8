package hierarchy

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/memory"
)

func quietScaled() Config {
	c := Scaled(4)
	c.Tenants = nil
	return c
}

func TestAccessLevels(t *testing.T) {
	h := NewHost(quietScaled(), 1)
	a := h.NewAgent(0)
	buf := a.Alloc(1)
	va := buf.LineAt(0, 0)

	if _, lvl := a.Access(va); lvl != DRAM {
		t.Fatalf("first access level = %v, want DRAM", lvl)
	}
	if _, lvl := a.Access(va); lvl != L1Hit {
		t.Fatalf("second access level = %v, want L1", lvl)
	}
	if !h.InSF(a.Translate(va)) {
		t.Fatal("line should be SF-tracked after an exclusive load")
	}
	if h.InLLC(a.Translate(va)) {
		t.Fatal("exclusive line must not be LLC-resident (non-inclusive)")
	}
}

func TestSharingInsertsIntoLLC(t *testing.T) {
	h := NewHost(quietScaled(), 2)
	a := h.NewAgent(0)
	helper := h.NewAgentSharing(1, a.AddressSpace())
	buf := a.Alloc(1)
	va := buf.LineAt(0, 0)

	a.LoadShared(helper, va)
	pa := a.Translate(va)
	if !h.InLLC(pa) {
		t.Fatal("shared line should be LLC-resident")
	}
	if h.InSF(pa) {
		t.Fatal("shared line should not be SF-tracked")
	}
	// Taking the line exclusive again removes it from the LLC.
	a.EvictPrivate(va)
	helperPA := helper.Translate(va)
	_ = helperPA
	if _, lvl := a.Access(va); lvl != LLCHit && lvl != L1Hit && lvl != L2Hit {
		t.Fatalf("re-access level = %v", lvl)
	}
}

func TestSFForward(t *testing.T) {
	h := NewHost(quietScaled(), 3)
	a := h.NewAgent(0)
	b := h.NewAgentSharing(2, a.AddressSpace())
	buf := a.Alloc(1)
	va := buf.LineAt(0, 0)

	a.Access(va)
	if _, lvl := b.Access(va); lvl != SFForward {
		t.Fatalf("cross-core access level = %v, want SF-fwd", lvl)
	}
	pa := a.Translate(va)
	if !h.InLLC(pa) {
		t.Fatal("line should be LLC-resident after E->S downgrade")
	}
}

func TestSFEvictionBackInvalidates(t *testing.T) {
	cfg := quietScaled()
	h := NewHost(cfg, 4)
	a := h.NewAgent(0)

	// Find SFWays+1 congruent lines by privileged inspection.
	buf := a.Alloc(4096)
	target := h.SetOf(a.Translate(buf.LineAt(0, 0)))
	var congruent []memory.VAddr
	for p := 0; p < buf.Pages && len(congruent) < cfg.SFWays+1; p++ {
		va := buf.LineAt(p, 0)
		if h.SetOf(a.Translate(va)) == target {
			congruent = append(congruent, va)
		}
	}
	if len(congruent) < cfg.SFWays+1 {
		t.Skipf("not enough congruent lines found (%d)", len(congruent))
	}
	ta := congruent[0]
	a.Access(ta)
	for _, va := range congruent[1:] {
		a.Access(va)
	}
	pa := a.Translate(ta)
	if h.InSF(pa) {
		t.Fatal("ta's SF entry should have been evicted by SFWays fills")
	}
	if h.InPrivate(0, pa) {
		t.Fatal("SF eviction must back-invalidate the private copy")
	}
}

func TestL1SurvivesL2Thrashing(t *testing.T) {
	cfg := quietScaled()
	h := NewHost(cfg, 5)
	a := h.NewAgent(0)
	buf := a.Alloc(1 + 4*cfg.L2Ways*cfg.L2Uncertainty())

	ta := buf.LineAt(0, 0)
	a.Access(ta)
	pa := a.Translate(ta)
	// Thrash the L2 with same-offset lines, touching ta (L1) between
	// every fill as a scope probe would.
	for p := 1; p < buf.Pages; p++ {
		a.Access(buf.LineAt(p, 0))
		if _, lvl := a.Access(ta); lvl != L1Hit {
			t.Fatalf("scope probe at page %d served from %v, want L1", p, lvl)
		}
	}
	if !h.InSF(pa) {
		t.Fatal("ta must stay SF-tracked while L1-resident")
	}
}

func TestNoiseEvictsOverTime(t *testing.T) {
	cfg := Scaled(4).WithCloudNoise()
	h := NewHost(cfg, 6)
	a := h.NewAgent(0)
	buf := a.Alloc(1)
	va := buf.LineAt(0, 0)
	a.Access(va)
	pa := a.Translate(va)
	if !h.InSF(pa) {
		t.Fatal("line should be SF-tracked")
	}
	// Idle for ~10 ms of virtual time: at 11.5 accesses/ms the SF set
	// receives ~115 background accesses, far more than SFWays.
	a.Idle(20_000_000)
	// Touch the set via a colliding access to trigger the lazy sync.
	if _, lvl := a.Access(va); lvl == L1Hit {
		// The private copy should have been back-invalidated by noise.
		t.Fatal("expected noise to evict the SF entry within 10ms window")
	}
	if h.NoiseEvents == 0 {
		t.Fatal("no noise events recorded")
	}
}

func TestScheduledEvents(t *testing.T) {
	h := NewHost(quietScaled(), 7)
	a := h.NewAgent(0)
	v := h.NewAgent(2)
	buf := v.Alloc(1)
	pa := v.Translate(buf.LineAt(0, 0))

	fired := 0
	h.Schedule(Event{Time: 1000, Core: 2, PA: pa, Done: func(clock.Cycles) { fired++ }})
	a.Idle(500)
	if fired != 0 {
		t.Fatal("event fired early")
	}
	a.Idle(1000)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !h.InSF(pa) {
		t.Fatal("scheduled access should have installed an SF entry")
	}
}
