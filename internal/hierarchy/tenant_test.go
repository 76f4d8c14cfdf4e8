package hierarchy

import (
	"math"
	"testing"

	"repro/internal/memory"
	"repro/internal/tenant"
)

// trace runs a fixed access workload on a host and returns a behaviour
// fingerprint: the serving level of every access, the final clock, and
// the background-event counter. Two hosts that agree on all of it have
// replayed the same simulation.
func trace(h *Host) (levels []Level, now uint64, noise uint64) {
	a := h.NewAgent(0)
	buf := a.Alloc(128)
	for i := 0; i < 128; i++ {
		_, l := a.Access(buf.LineAt(i, 0))
		levels = append(levels, l)
	}
	// Enough idle spans that phased tenants (burst off-phases average
	// several ms) are overwhelmingly likely to fire at least once.
	for round := 0; round < 16; round++ {
		a.Idle(2_000_000) // 1 ms of background activity
		for i := 0; i < 128; i += 3 {
			_, l := a.Access(buf.LineAt(i, 0))
			levels = append(levels, l)
		}
	}
	return levels, uint64(h.Clock().Now()), h.NoiseEvents
}

func equalTraces(t *testing.T, label string, h1, h2 *Host) {
	t.Helper()
	l1, t1, n1 := trace(h1)
	l2, t2, n2 := trace(h2)
	if t1 != t2 || n1 != n2 {
		t.Fatalf("%s: clock %d vs %d, noise events %d vs %d", label, t1, t2, n1, n2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("%s: access %d served from %v vs %v", label, i, l1[i], l2[i])
		}
	}
}

// TestNoisePresetMatchesExplicitSpec: a host configured through the
// Cloud Run noise preset and one configured with the equivalent
// explicit poisson tenant spec must replay the exact same simulation —
// same serving levels, same clock, same noise-event count.
func TestNoisePresetMatchesExplicitSpec(t *testing.T) {
	preset := Scaled(4).WithCloudNoise()
	explicit := Scaled(4).WithTenants(tenant.Spec{Model: "poisson", Rate: 11.5, LLCProb: 0.5})
	h1 := NewHost(preset, 1234)
	h2 := NewHost(explicit, 1234)
	equalTraces(t, "preset vs explicit poisson", h1, h2)
}

// TestTenantHostDeterminism: every model family replays identically
// from equal seeds, and produces background events at all.
func TestTenantHostDeterminism(t *testing.T) {
	for _, spec := range []tenant.Spec{
		{Model: "poisson", Rate: 11.5, LLCProb: 0.5},
		{Model: "burst", Rate: 34.5, LLCProb: 0.5, OnFrac: 0.2, OnMs: 1},
		{Model: "stream", Rate: 46, LLCProb: 0.5, Width: 4},
		{Model: "hotset", Rate: 23, LLCProb: 0.5, HotFrac: 0.5},
		{Model: "churn", Rate: 23, LLCProb: 0.5, ArrivalsPerMs: 0.5, LifeMs: 2, FootprintFrac: 0.5},
	} {
		cfg := Scaled(2).WithTenants(spec)
		h1 := NewHost(cfg, 77)
		h2 := NewHost(cfg, 77)
		equalTraces(t, spec.Model, h1, h2)
		if h1.NoiseEvents == 0 {
			t.Errorf("%s: workload produced no background events", spec.Model)
		}
	}
}

// TestTenantResetEquivalence: a pooled host recycled with Reset must
// replay a fresh host exactly, including lazily built tenant schedule
// state (burst phases, churn arrivals) — the engine's host-pool
// contract extended to structured tenants.
func TestTenantResetEquivalence(t *testing.T) {
	for _, spec := range []tenant.Spec{
		{Model: "burst", Rate: 34.5, LLCProb: 0.5, OnFrac: 0.2, OnMs: 1},
		{Model: "stream", Rate: 46, LLCProb: 0.5, Width: 4},
		{Model: "hotset", Rate: 23, LLCProb: 0.5, HotFrac: 0.5},
		{Model: "churn", Rate: 23, LLCProb: 0.5, ArrivalsPerMs: 0.5, LifeMs: 2, FootprintFrac: 0.5},
	} {
		cfg := Scaled(2).WithTenants(spec)
		fresh := NewHost(cfg, 99)
		recycled := NewHost(cfg, 31)
		trace(recycled) // accumulate tenant schedule + cache state
		recycled.Reset(99)
		equalTraces(t, spec.Model+" reset-vs-fresh", fresh, recycled)
	}
}

// TestMultipleTenantsCompose: several tenants run side by side and the
// composite host still replays deterministically.
func TestMultipleTenantsCompose(t *testing.T) {
	cfg := Scaled(2).WithTenants(
		tenant.Spec{Model: "poisson", Rate: 0.29, LLCProb: 0.5},
		tenant.Spec{Model: "burst", Rate: 34.5, LLCProb: 0.5, OnFrac: 0.2, OnMs: 1},
	)
	h1 := NewHost(cfg, 5)
	h2 := NewHost(cfg, 5)
	equalTraces(t, "composite", h1, h2)
}

func TestConfigValidate(t *testing.T) {
	if err := Scaled(2).Validate(); err != nil {
		t.Fatalf("shipped config rejected: %v", err)
	}
	bad := []func(Config) Config{
		func(c Config) Config { return c.WithTenants(tenant.Spec{Model: "poisson", Rate: -1, LLCProb: 0.5}) },
		func(c Config) Config { return c.WithTenants(tenant.Spec{Model: "poisson", Rate: 1, LLCProb: 1.5}) },
		func(c Config) Config { return c.WithTenants(tenant.Spec{Model: "poisson", Rate: 1, LLCProb: -0.1}) },
		func(c Config) Config { c.MemoryBytes = 0; return c },
		func(c Config) Config { c.MemoryBytes = (memory.MaxFrames + 1) * memory.PageSize; return c },
		func(c Config) Config { c.ReuseInsertProb = 2; return c },
		func(c Config) Config { c.TimerJitter = -3; return c },
		func(c Config) Config { c.Lat.JitterFrac = -0.5; return c },
		func(c Config) Config { c.Lat.JitterFrac = math.NaN(); return c },
		func(c Config) Config { c.Lat.JitterFrac = math.Inf(1); return c },
		func(c Config) Config { c.Lat.Base[L2Hit] = -14; return c },
		func(c Config) Config { c.Lat.Base[DRAM] = math.Inf(1); return c },
		func(c Config) Config { return c.WithTenants(tenant.Spec{Model: "nope", Rate: 1}) },
		func(c Config) Config { return c.WithTenants(tenant.Spec{Model: "poisson", Rate: -2}) },
		func(c Config) Config {
			return c.WithTenants(tenant.Spec{Model: "hotset", Rate: 1, HotFrac: 3})
		},
		// Geometry: set counts the index masks cannot address, and
		// associativities outside one valid-mask word.
		func(c Config) Config { c.L1Sets = 48; return c },
		func(c Config) Config { c.L2Sets = 1000; return c },
		func(c Config) Config { c.LLCSets = 384; return c },
		func(c Config) Config { c.LLCSets = 0; return c },
		func(c Config) Config { c.L1Ways = 0; return c },
		func(c Config) Config { c.L2Ways = 65; return c },
		func(c Config) Config { c.LLCWays = 65; return c },
		func(c Config) Config { c.SFWays = 65; return c },
		func(c Config) Config { c.SFWays = -1; return c },
	}
	for i, mutate := range bad {
		cfg := mutate(Scaled(2))
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a nonsense config", i)
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewHost built a host from a nonsense config", i)
				}
			}()
			NewHost(cfg, 1)
		}()
	}
}

// TestWithNoiseRateRescalesTenants: on a config with structured
// tenants, WithNoiseRate must sweep INTENSITY while preserving the mix
// — the property that keeps llcrepro's noise axes meaningful under a
// -tenants override — and must not alias the original spec slice.
func TestWithNoiseRateRescalesTenants(t *testing.T) {
	base := Scaled(2).WithTenants(
		tenant.Spec{Model: "poisson", Rate: 10, LLCProb: 0.5},
		tenant.Spec{Model: "burst", Rate: 30, LLCProb: 0.5, OnFrac: 0.2, OnMs: 1},
	)
	scaled := base.WithNoiseRate(8)
	if got := scaled.Tenants[0].Rate + scaled.Tenants[1].Rate; got != 8 {
		t.Fatalf("total tenant rate = %g, want 8", got)
	}
	if scaled.Tenants[0].Rate != 2 || scaled.Tenants[1].Rate != 6 {
		t.Fatalf("mix not preserved: %g, %g (want 2, 6)", scaled.Tenants[0].Rate, scaled.Tenants[1].Rate)
	}
	if base.Tenants[0].Rate != 10 {
		t.Fatal("WithNoiseRate aliased the receiver's tenant slice")
	}
	// All-zero declared rates: the requested total splits evenly.
	zero := Scaled(2).WithTenants(
		tenant.Spec{Model: "poisson", LLCProb: 0.5},
		tenant.Spec{Model: "stream", LLCProb: 0.5},
	).WithNoiseRate(8)
	if zero.Tenants[0].Rate != 4 || zero.Tenants[1].Rate != 4 {
		t.Fatalf("zero-rate split = %g, %g (want 4, 4)", zero.Tenants[0].Rate, zero.Tenants[1].Rate)
	}
}

// TestWithNoiseRateExact: a lone tenant takes the requested rate
// exactly — the proportional rescale 0.29 * (0.0411/0.29) lands one ulp
// below 0.0411 — and a tenant-less config gains the paper's flat
// background, one poisson tenant installing in the LLC with
// probability 0.5.
func TestWithNoiseRateExact(t *testing.T) {
	lone := Scaled(2).WithTenants(tenant.Spec{Model: "poisson", Rate: 0.29, LLCProb: 0.25}).WithNoiseRate(0.0411)
	if want := (tenant.Spec{Model: "poisson", Rate: 0.0411, LLCProb: 0.25}); len(lone.Tenants) != 1 || lone.Tenants[0] != want {
		t.Errorf("lone tenant rescaled to %+v, want %+v", lone.Tenants, want)
	}
	silent := Scaled(2)
	silent.Tenants = nil
	got := silent.WithNoiseRate(11.5).Tenants
	if want := (tenant.Spec{Model: "poisson", Rate: 11.5, LLCProb: 0.5}); len(got) != 1 || got[0] != want {
		t.Errorf("tenant-less config gained %+v, want [%+v]", got, want)
	}
}

// TestWithTenantsCopies: the spec slice must be copied, not aliased.
func TestWithTenantsCopies(t *testing.T) {
	specs := []tenant.Spec{{Model: "poisson", Rate: 1, LLCProb: 0.5}}
	cfg := Scaled(2).WithTenants(specs...)
	specs[0].Rate = 99
	if cfg.Tenants[0].Rate != 1 {
		t.Fatal("WithTenants aliased the caller's slice")
	}
}
