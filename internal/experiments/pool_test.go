package experiments

import (
	"testing"

	"repro/internal/defense"
	"repro/internal/hierarchy"
	"repro/internal/tenant"
)

// TestHostPoolReusesEqualConfigs pins the Config.Key fix at the pool
// layer: two equal-valued configs built independently — including
// pointer fields (Defense) and slice fields (Tenants) that a naive
// %+v fingerprint would print by address — must resolve to the SAME
// pooled host, while a value difference must build a different host.
// The pool holds one host, so going back to the first config builds a
// fresh one.
func TestHostPoolReusesEqualConfigs(t *testing.T) {
	mk := func() hierarchy.Config {
		return hierarchy.Scaled(2).
			WithTenants(tenant.Spec{Model: "stream", Rate: 11.5, LLCProb: 0.5, Width: 4}).
			WithDefense(defense.Spec{Model: "quiesce", Quantum: 256})
	}
	p := &hostPool{}
	h1 := p.get(mk(), 1)
	h2 := p.get(mk(), 2)
	if h1 != h2 {
		t.Fatal("equal configs must share one pool entry (host-pool reuse defeated)")
	}
	other := mk().WithDefense(defense.Spec{Model: "quiesce", Quantum: 128})
	h3 := p.get(other, 3)
	if h3 == h1 {
		t.Fatal("different defense parameters must not share a pooled host")
	}
	if h4 := p.get(mk(), 4); h4 == h1 || h4 == h3 {
		t.Fatal("returning to the first config must build a fresh host, not keep or reuse a stale one")
	}
}
