package hierarchy

import (
	"testing"

	"repro/internal/defense"
	"repro/internal/tenant"
)

// defenseSpecs is one spec per model family, exercised by the generic
// host-level tests below.
var defenseSpecs = []defense.Spec{
	{Model: "partition", Ways: 4},
	{Model: "randomize", Period: 5000},
	{Model: "scatter"},
	{Model: "quiesce", Quantum: 256, Jitter: 8},
}

// TestDefendedHostDeterminism: every defended host replays identically
// from equal seeds (the trace fingerprint of tenant_test.go).
func TestDefendedHostDeterminism(t *testing.T) {
	for _, sp := range defenseSpecs {
		cfg := Scaled(2).WithCloudNoise().WithDefense(sp)
		h1 := NewHost(cfg, 77)
		h2 := NewHost(cfg, 77)
		equalTraces(t, sp.Model, h1, h2)
	}
}

// TestDefenseResetEquivalence: a defended host reset to a seed replays a
// freshly built host with that seed — the host-pool recycling contract,
// now covering defense state (rekey epochs, skew keys).
func TestDefenseResetEquivalence(t *testing.T) {
	for _, sp := range defenseSpecs {
		cfg := Scaled(2).WithCloudNoise().WithDefense(sp)
		recycled := NewHost(cfg, 1)
		trace(recycled) // dirty the host (and any defense epoch state)
		recycled.Reset(99)
		fresh := NewHost(cfg, 99)
		equalTraces(t, sp.Model, recycled, fresh)
	}
}

// TestDefenseValidation: geometry cross-checks reject partitions that
// would leave a shared structure without ways on one side.
func TestDefenseValidation(t *testing.T) {
	base := Scaled(2) // 8-way SF over a 7-way LLC slice
	if err := base.WithDefense(defense.Spec{Model: "partition", Ways: 7}).Validate(); err == nil {
		t.Error("partition at LLCWays must be rejected")
	}
	if err := base.WithDefense(defense.Spec{Model: "partition", Ways: 6}).Validate(); err != nil {
		t.Errorf("partition ways=6 on a 7-way LLC should validate: %v", err)
	}
	if err := base.WithDefense(defense.Spec{Model: "bogus"}).Validate(); err == nil {
		t.Error("unknown defense model must be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewHost must panic on an invalid defense")
		}
	}()
	NewHost(base.WithDefense(defense.Spec{Model: "partition", Ways: 7}), 1)
}

// TestPartitionHidesVictimFromAttacker is the end-to-end isolation
// property: with a way partition, a victim hammering its own lines can
// never displace an attacker's SF/LLC entries, so the attacker's primes
// observe nothing.
func TestPartitionHidesVictimFromAttacker(t *testing.T) {
	cfg := Scaled(2)
	cfg.Tenants = nil
	cfg = cfg.WithDefense(defense.Spec{Model: "partition", Ways: 4})
	h := NewHost(cfg, 5)
	att := h.NewAgent(0)
	vic := h.NewAgent(2)

	// The attacker occupies one SF set with 4 lines (its whole region).
	buf := att.Alloc(4096)
	target := att.SetOf(buf.LineAt(0, 0))
	var mine []int
	for p := 0; p < buf.Pages && len(mine) < 4; p++ {
		if att.SetOf(buf.LineAt(p, 0)) == target {
			mine = append(mine, p)
		}
	}
	if len(mine) < 4 {
		t.Skip("not enough congruent attacker lines found")
	}
	for _, p := range mine {
		att.Access(buf.LineAt(p, 0))
	}
	// The victim floods the same physical set with dozens of lines.
	vbuf := vic.Alloc(8192)
	flooded := 0
	for p := 0; p < vbuf.Pages && flooded < 24; p++ {
		if vic.SetOf(vbuf.LineAt(p, 0)) == target {
			vic.Access(vbuf.LineAt(p, 0))
			flooded++
		}
	}
	if flooded < 8 {
		t.Skip("not enough congruent victim lines found")
	}
	// Every attacker line must still be SF-tracked: re-access hits private
	// caches or SF, never DRAM-after-back-invalidation.
	for _, p := range mine {
		if !h.InSF(att.Translate(buf.LineAt(p, 0))) {
			t.Fatal("victim traffic displaced an attacker SF entry across the partition")
		}
	}
}

// TestConfigKeyValueBased pins the host-pool identity fix: Key must be a
// function of field VALUES, so two configs that differ only in pointer
// identity (distinct but equal Defense specs, separately built tenant
// slices) share one pool entry, while any value difference still
// separates them.
func TestConfigKeyValueBased(t *testing.T) {
	mk := func() Config {
		return Scaled(2).
			WithTenants(tenant.Spec{Model: "burst", Rate: 34.5, LLCProb: 0.5}).
			WithDefense(defense.Spec{Model: "partition", Ways: 4})
	}
	a, b := mk(), mk()
	if a.Defense == b.Defense {
		t.Fatal("test setup: specs must be distinct pointers")
	}
	if a.Key() != b.Key() {
		t.Fatalf("equal configs produced different keys:\n%s\nvs\n%s", a.Key(), b.Key())
	}
	// Value differences must still separate.
	c := mk().WithDefense(defense.Spec{Model: "partition", Ways: 5})
	if c.Key() == a.Key() {
		t.Error("different defense parameters collapsed to one key")
	}
	d := mk()
	d.Defense = nil
	if d.Key() == a.Key() {
		t.Error("defended and undefended configs collapsed to one key")
	}
	e := mk()
	e.LLCWays++
	if e.Key() == a.Key() {
		t.Error("different geometry collapsed to one key")
	}
}
