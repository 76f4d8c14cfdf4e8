package defense

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

func TestRegistry(t *testing.T) {
	want := []string{"partition", "quiesce", "randomize", "scatter"}
	got := Models()
	if len(got) != len(want) {
		t.Fatalf("Models() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Models() = %v, want %v", got, want)
		}
	}
	if len(ModelList()) != len(want) {
		t.Error("ModelList and Models disagree")
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Model: "partition"},
		{Model: "partition", Ways: 2},
		{Model: "randomize", Period: 50},
		{Model: "scatter"},
		{Model: "quiesce", Quantum: 128, Jitter: 16},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", s, err)
		}
		if _, err := s.Build(); err != nil {
			t.Errorf("Build(%+v) = %v", s, err)
		}
	}
	bad := []Spec{
		{Model: "moat"},
		{Model: "partition", Ways: -1},
		{Model: "randomize", Period: -5},
		{Model: "quiesce", Quantum: -1},
		{Model: "quiesce", Jitter: -2},
		{Model: "quiesce", Quantum: math.NaN()},
		{Model: "quiesce", Quantum: math.Inf(1)},
		{Model: "quiesce", Jitter: math.NaN()},
		// Inapplicable parameters are typos, not silent no-ops.
		{Model: "scatter", Ways: 4},
		{Model: "partition", Period: 100},
		{Model: "randomize", Quantum: 256},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
}

func TestParseAndStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"partition", "partition:ways=2", "randomize:period=5000",
		"scatter", "quiesce", "quiesce:quantum=128,jitter=16",
	} {
		sp, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		back, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", in, sp.String(), err)
		}
		// WithDefaults normalizes both sides: String omits parameters
		// that do not apply to the model, which stay zero after Parse.
		if back.WithDefaults() != sp.WithDefaults() {
			t.Errorf("%q does not round-trip: %#v vs %#v", in, sp.WithDefaults(), back.WithDefaults())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for in, wantSub := range map[string]string{
		"moat":                 `unknown model "moat"`,
		"partition:ways":       "malformed parameter",
		"partition:ways=x":     "bad value",
		"partition:period=100": `does not apply to model "partition"`,
		"partition:ways=0":     "ways out of range",
		"quiesce:quantum=0":    "quantum out of range",
		"quiesce:quantum=NaN":  "quantum out of range",
		"quiesce:jitter=+Inf":  "jitter out of range",
		"randomize:period=1.5": "period out of range",
	} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) = %v, want substring %q", in, err, wantSub)
		}
	}
}

func TestParseOpt(t *testing.T) {
	for _, in := range []string{"", "  ", "none"} {
		sp, err := ParseOpt(in)
		if sp != nil || err != nil {
			t.Errorf("ParseOpt(%q) = (%v, %v), want (nil, nil)", in, sp, err)
		}
	}
	sp, err := ParseOpt("partition:ways=3")
	if err != nil || sp == nil || sp.Ways != 3 {
		t.Fatalf("ParseOpt(partition:ways=3) = (%+v, %v)", sp, err)
	}
	if _, err := ParseOpt("bogus"); err == nil {
		t.Error("ParseOpt accepted an unknown model")
	}
}

func TestSpecJSONRejectsNothing(t *testing.T) {
	// Specs round-trip through JSON for reports and sweep files.
	sp := Spec{Model: "quiesce", Quantum: 128, Jitter: 8}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != sp {
		t.Fatalf("JSON round-trip: %+v vs %+v", sp, back)
	}
}

func TestPartitionRegions(t *testing.T) {
	m, err := Spec{Model: "partition", Ways: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.Reset(1)
	if m.PartitionWays() != 3 {
		t.Fatalf("PartitionWays = %d, want 3", m.PartitionWays())
	}
	if m.Region(DomainAttacker) != 0 {
		t.Error("attacker must allocate in region 0")
	}
	if m.Region(DomainVictim) != 1 || m.Region(DomainOther) != 1 {
		t.Error("victim and tenants must share region 1")
	}
	// Index and Observe are the identity for partition.
	if m.Index(DomainAttacker, 0xabc0, 2, 17, 512) != 17 {
		t.Error("partition must not transform indices")
	}
	if m.Observe(xrand.New(1), 321) != 321 {
		t.Error("partition must not filter measurements")
	}
}

// modelSpecs is one buildable spec per family, used by the generic
// determinism subtests.
var modelSpecs = []Spec{
	{Model: "partition", Ways: 4},
	{Model: "randomize", Period: 64},
	{Model: "scatter"},
	{Model: "quiesce", Quantum: 256, Jitter: 8},
}

// TestModelDeterminismAndResetEquivalence pins the Reset contract: equal
// seeds reproduce identical behaviour, a reset model equals a fresh one,
// and different seeds genuinely change keyed models.
func TestModelDeterminismAndResetEquivalence(t *testing.T) {
	const sets = 512
	fingerprint := func(m Model, seed uint64) []int {
		m.Reset(seed)
		var out []int
		for i := 0; i < 400; i++ {
			line := uint64(i) << 6
			out = append(out, m.Index(DomainAttacker, line, i%4, i%sets, sets))
			out = append(out, m.Index(DomainVictim, line, i%4, i%sets, sets))
			m.Tick()
		}
		return out
	}
	equal := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, sp := range modelSpecs {
		t.Run(sp.Model, func(t *testing.T) {
			m1, _ := sp.Build()
			m2, _ := sp.Build()
			f1 := fingerprint(m1, 99)
			if f2 := fingerprint(m2, 99); !equal(f1, f2) {
				t.Fatal("equal seeds must produce identical index streams")
			}
			// Reset-vs-fresh: reuse m1 after it ran, against a fresh build.
			if f3 := fingerprint(m1, 99); !equal(f1, f3) {
				t.Fatal("a reset model must replay exactly like a fresh one")
			}
			for i := 0; i < 512; i++ {
				if m1.Index(DomainAttacker, uint64(i)<<6, 0, i%sets, sets) != m2.Index(DomainAttacker, uint64(i)<<6, 0, i%sets, sets) {
					t.Fatal("Index must be pure between Ticks")
				}
			}
		})
	}
	// Keyed models must actually depend on the seed.
	for _, name := range []string{"randomize", "scatter"} {
		m, _ := Spec{Model: name}.Build()
		a := fingerprint(m, 1)
		if b := fingerprint(m, 2); equal(a, b) {
			t.Errorf("%s: different seeds produced identical mappings", name)
		}
	}
}

func TestRandomizeRekeyRotatesMapping(t *testing.T) {
	m, _ := Spec{Model: "randomize", Period: 10}.Build()
	m.Reset(7)
	const sets = 512
	before := make([]int, 64)
	for i := range before {
		before[i] = m.Index(DomainAttacker, uint64(i)<<6, 0, 0, sets)
	}
	for i := 0; i < 10; i++ {
		m.Tick()
	}
	changed := 0
	for i := range before {
		if m.Index(DomainAttacker, uint64(i)<<6, 0, 0, sets) != before[i] {
			changed++
		}
	}
	if changed < len(before)/2 {
		t.Fatalf("rekey moved only %d/%d lines", changed, len(before))
	}
}

func TestScatterSkewsDomainsApart(t *testing.T) {
	m, _ := Spec{Model: "scatter"}.Build()
	m.Reset(3)
	const sets = 512
	same := 0
	for i := 0; i < 256; i++ {
		line := uint64(i) << 6
		if m.Index(DomainAttacker, line, 1, 0, sets) == m.Index(DomainVictim, line, 1, 0, sets) {
			same++
		}
	}
	// Unrelated uniform mappings collide w.p. 1/sets; 256 lines should
	// see at most a few collisions.
	if same > 8 {
		t.Fatalf("attacker and victim mappings agree on %d/256 lines", same)
	}
}

func TestQuiesceObserve(t *testing.T) {
	m, _ := Spec{Model: "quiesce", Quantum: 256}.Build()
	m.Reset(1)
	rng := xrand.New(1)
	for in, want := range map[float64]float64{1: 256, 255: 256, 256: 256, 257: 512, 600: 768} {
		if got := m.Observe(rng, in); got != want {
			t.Errorf("Observe(%g) = %g, want %g", in, got, want)
		}
	}
	// Jitter-only quiesce draws from the given rng deterministically.
	j, _ := Spec{Model: "quiesce", Quantum: 1, Jitter: 20}.Build()
	j.Reset(1)
	a := j.Observe(xrand.New(5), 300)
	b := j.Observe(xrand.New(5), 300)
	if a != b {
		t.Error("jitter draws must be deterministic in the rng stream")
	}
	if a == 300 {
		t.Error("jitter should perturb the measurement")
	}
}

// TestHooksOfHonest pins the devirtualization contract: any hook
// HooksOf reports as skippable must be an identity/no-op/non-drawing
// passthrough for that model. The hierarchy relies on this to elide
// virtual calls on the access path without changing a single draw.
func TestHooksOfHonest(t *testing.T) {
	specs := []Spec{
		{Model: "partition", Ways: 4},
		{Model: "randomize", Period: 100},
		{Model: "scatter"},
		{Model: "quiesce", Quantum: 64, Jitter: 8},
	}
	for _, sp := range specs {
		m, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Model, err)
		}
		m.Reset(7)
		hooks := HooksOf(m)
		lines := xrand.New(21)
		for i := 0; i < 200; i++ {
			line := lines.Uint64() &^ 0x3f
			slice := int(lines.Uint64() % 4)
			base := int(lines.Uint64() % 1024)
			d := Domain(lines.Uint64() % 3)
			if !hooks.Index {
				if got := m.Index(d, line, slice, base, 1024); got != base {
					t.Fatalf("%s: Hooks.Index=false but Index(%v, %#x) = %d != base %d",
						sp.Model, d, line, got, base)
				}
			}
			if !hooks.Observe {
				probe := xrand.New(33)
				before := probe.Uint64()
				probe.Seed(33)
				if got := m.Observe(probe, 123.5); got != 123.5 {
					t.Fatalf("%s: Hooks.Observe=false but Observe transformed the measurement to %g", sp.Model, got)
				}
				if probe.Uint64() != before {
					t.Fatalf("%s: Hooks.Observe=false but Observe drew from rng", sp.Model)
				}
			}
		}
		if !hooks.Tick {
			// Ticking must not change any observable mapping.
			wantIdx := m.Index(DomainAttacker, 0x1000, 0, 5, 1024)
			for i := 0; i < 1000; i++ {
				m.Tick()
			}
			if got := m.Index(DomainAttacker, 0x1000, 0, 5, 1024); got != wantIdx {
				t.Fatalf("%s: Hooks.Tick=false but 1000 ticks moved Index %d -> %d", sp.Model, wantIdx, got)
			}
		}
	}
	if h := HooksOf(nil); h.Tick || h.Index || h.Observe {
		t.Fatalf("HooksOf(nil) = %+v, want all false", h)
	}
}

// FuzzDefenseSpecRoundTrip: Parse never panics, and whatever it accepts
// renders through String to a spec with the same effective parameters
// (String fills the model's defaults, so both sides compare after
// WithDefaults) whose String is a fixed point.
func FuzzDefenseSpecRoundTrip(f *testing.F) {
	for _, s := range []string{
		"partition", "partition:ways=2", "randomize:period=5000", "scatter",
		"quiesce", "quiesce:quantum=128,jitter=16", "quiesce:jitter=-0",
		"quiesce:quantum=NaN", "quiesce:jitter=Inf", "partition:ways=1e300",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return
		}
		str := sp.String()
		back, err := Parse(str)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but Parse(String) = Parse(%q): %v", s, str, err)
		}
		if back.WithDefaults() != sp.WithDefaults() {
			t.Fatalf("Parse(%q) = %#v, Parse(String) = %#v", s, sp, back)
		}
		if again := back.String(); again != str {
			t.Fatalf("String is not a fixed point: %q -> %q", str, again)
		}
	})
}
