package tenant

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/xrand"
)

func TestRegistry(t *testing.T) {
	want := []string{"burst", "churn", "hotset", "poisson", "stream"}
	if got := Models(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Models() = %v, want %v", got, want)
	}
	if got := ModelList(); len(got) != len(want) {
		t.Fatalf("ModelList() has %d lines, want %d", len(got), len(want))
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, in := range []string{
		"poisson:rate=11.5,llc_prob=0.5",
		"burst:rate=34.5,llc_prob=0.5,on_frac=0.2,on_ms=1.5",
		"stream:rate=11.5,llc_prob=0.25,width=8",
		"hotset:rate=23,llc_prob=0.5,hot_frac=0.125",
		"churn:rate=11.5,llc_prob=0.5,arrivals_per_ms=0.1,life_ms=2,footprint_frac=0.75",
	} {
		sp, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		again, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", in, sp.String(), err)
		}
		if again != sp {
			t.Errorf("round trip changed the spec: %+v -> %+v", sp, again)
		}
	}
	// A bare model name takes the Cloud Run rate and default LLC prob.
	sp, err := Parse("burst")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Rate != 11.5 || sp.LLCProb != DefaultLLCProb {
		t.Errorf("bare spec defaults wrong: %+v", sp)
	}
	// Sparse specs (zero-valued model params) render their effective
	// defaults, so String always round-trips through Parse.
	for _, sparse := range []Spec{
		{Model: "burst", Rate: 11.5, LLCProb: 0.5},
		{Model: "hotset", Rate: 23, LLCProb: 0.5},
		{Model: "churn", Rate: 11.5, LLCProb: 0.5},
		{Model: "stream", Rate: 11.5, LLCProb: 0.5},
	} {
		got, err := Parse(sparse.String())
		if err != nil {
			t.Errorf("Parse(String(%+v)) = %q: %v", sparse, sparse.String(), err)
			continue
		}
		if got.String() != sparse.String() {
			t.Errorf("sparse round trip: %q -> %q", sparse.String(), got.String())
		}
	}
}

// TestJSONDefaultsMatchSpecStrings: the two -tenants syntaxes must
// agree on omitted-key defaults (an absent rate/llc_prob means
// 11.5/0.5 in both), while explicit zeros stay zero.
func TestJSONDefaultsMatchSpecStrings(t *testing.T) {
	fromJSON, err := ParseList(`{"model":"burst"}`)
	if err != nil {
		t.Fatal(err)
	}
	fromString, err := ParseList("burst")
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON[0] != fromString[0] {
		t.Fatalf("JSON and spec-string defaults diverge: %+v vs %+v", fromJSON[0], fromString[0])
	}
	explicit, err := ParseList(`{"model":"burst","llc_prob":0}`)
	if err != nil {
		t.Fatal(err)
	}
	if explicit[0].LLCProb != 0 {
		t.Fatalf("explicit llc_prob 0 overridden to %g", explicit[0].LLCProb)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"warp",                    // unknown model
		"poisson:on_frac=0.5",     // parameter of another model
		"burst:rate",              // malformed key=value
		"burst:rate=fast",         // bad number
		"burst:rate=-3",           // negative rate
		"poisson:llc_prob=1.5",    // probability out of range
		"hotset:hot_frac=0",       // fraction out of range
		"churn:life_ms=-1",        // negative lifetime
		"stream:width=0.5",        // truncates to zero width
		"burst:on_frac=2",         // fraction out of range
		"churn:footprint_frac=-1", // fraction out of range
		// Non-finite values: a NaN rate would hang the simulator's
		// Poisson draws, an infinite one break the JSON report.
		"poisson:rate=NaN",
		"poisson:rate=+Inf",
		"poisson:rate=-Inf",
		"poisson:llc_prob=NaN",
		"burst:on_frac=NaN",
		"burst:on_ms=NaN",
		"burst:on_ms=+Inf",
		"stream:width=NaN",
		"stream:width=+Inf",
		"hotset:hot_frac=NaN",
		"churn:arrivals_per_ms=NaN",
		"churn:life_ms=+Inf",
		"churn:life_ms=-Inf",
		"churn:footprint_frac=NaN",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", in)
		}
	}
}

func TestParseList(t *testing.T) {
	specs, err := ParseList("poisson:rate=0.29; burst:rate=34.5,on_frac=0.1")
	if err != nil || len(specs) != 2 || specs[0].Model != "poisson" || specs[1].Model != "burst" {
		t.Fatalf("ParseList specs = %+v, err = %v", specs, err)
	}
	specs, err = ParseList(`[{"model":"stream","rate":11.5,"llc_prob":0.5,"width":8}]`)
	if err != nil || len(specs) != 1 || specs[0].Width != 8 {
		t.Fatalf("JSON array: specs = %+v, err = %v", specs, err)
	}
	specs, err = ParseList(`{"model":"hotset","rate":23,"hot_frac":0.25}`)
	if err != nil || len(specs) != 1 || specs[0].Model != "hotset" {
		t.Fatalf("JSON object: specs = %+v, err = %v", specs, err)
	}
	// Only whitespace may follow the single JSON object.
	if specs, err := ParseList("{\"model\":\"burst\"}\n"); err != nil || len(specs) != 1 || specs[0].Model != "burst" {
		t.Fatalf("JSON object with a trailing newline: specs = %+v, err = %v", specs, err)
	}
	for _, bad := range []string{`{"model":"burst"}{"model":"no-such-model"}`, `{"model":"burst"}]`} {
		if specs, err := ParseList(bad); err == nil {
			t.Errorf("ParseList(%s) accepted trailing data: %+v", bad, specs)
		}
	}
	if specs, err := ParseList("  "); err != nil || specs != nil {
		t.Fatalf("blank list: specs = %+v, err = %v", specs, err)
	}
	if _, err := ParseList(`[{"model":"hotset","hot_frac":7}]`); err == nil {
		t.Error("ParseList accepted an out-of-range JSON spec")
	}
	if _, err := ParseList(`[{"model":`); err == nil {
		t.Error("ParseList accepted truncated JSON")
	}
	// The JSON form is as strict as the spec-string form: misspelled
	// keys and parameters of other models are typos, not no-ops.
	if _, err := ParseList(`{"model":"burst","on_fra":0.05}`); err == nil {
		t.Error("ParseList accepted a misspelled JSON key")
	}
	if _, err := ParseList(`{"model":"poisson","on_frac":0.9}`); err == nil {
		t.Error("ParseList accepted an inapplicable JSON parameter")
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Model: "burst", Rate: 11.5, LLCProb: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("sparse spec must validate via defaults: %v", err)
	}
	for _, bad := range []Spec{
		{Model: "nope", Rate: 1},
		{Model: "poisson", Rate: -1},
		{Model: "poisson", Rate: 1, LLCProb: 2},
		{Model: "burst", Rate: 1, OnFrac: -0.1},
		{Model: "burst", Rate: 1, OnMs: -2},
		{Model: "stream", Rate: 1, Width: -4},
		{Model: "hotset", Rate: 1, HotFrac: 1.5},
		{Model: "churn", Rate: 1, ArrivalsPerMs: -0.1},
		{Model: "churn", Rate: 1, FootprintFrac: 2},
		{Model: "poisson", Rate: 1, OnFrac: 0.5}, // inapplicable parameter
		{Model: "burst", Rate: 1, Width: 4},      // inapplicable parameter
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []float64{nan, inf, -inf} {
		for _, bad := range []Spec{
			{Model: "poisson", Rate: v, LLCProb: 0.5},
			{Model: "poisson", Rate: 1, LLCProb: v},
			{Model: "burst", Rate: 1, OnFrac: v},
			{Model: "burst", Rate: 1, OnMs: v},
			{Model: "hotset", Rate: 1, HotFrac: v},
			{Model: "churn", Rate: 1, ArrivalsPerMs: v},
			{Model: "churn", Rate: 1, LifeMs: v},
			{Model: "churn", Rate: 1, FootprintFrac: v},
		} {
			if err := bad.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", bad)
			}
		}
	}
}

// TestPoissonMatchesLegacyExpression: the poisson model must consume
// the host stream exactly as the expression the hierarchy inlines for
// Memoryless models — one Poisson(window*rate) draw, nothing else.
func TestPoissonMatchesLegacyExpression(t *testing.T) {
	const rate = 11.5 / CyclesPerMs
	m, err := Spec{Model: "poisson", Rate: 11.5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.Reset(1)
	a, b := xrand.New(42), xrand.New(42)
	last := clock.Cycles(0)
	for _, now := range []clock.Cycles{100, 5_000, 1_000_000, 30_000_000} {
		got := m.Accesses(a, Set{Slot: 3, Total: 2048}, last, now)
		want := b.Poisson(float64(now-last) * rate)
		if got != want {
			t.Fatalf("window (%d, %d]: model drew %d, inlined expression %d", last, now, got, want)
		}
		last = now
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("model consumed a different number of host-stream draws than the inlined expression")
	}
}

// queryPlan is a fixed per-set sync schedule used by the determinism
// tests: windows of varying width over a few distinct slots.
type query struct {
	slot      int
	last, now clock.Cycles
}

func testQueries() []query {
	var qs []query
	for _, slot := range []int{0, 17, 511, 1023} {
		last := clock.Cycles(0)
		for _, now := range []clock.Cycles{40_000, 41_000, 3_000_000, 9_000_000, 120_000_000} {
			qs = append(qs, query{slot, last, now})
			last = now
		}
	}
	return qs
}

func allSpecs() []Spec {
	return []Spec{
		{Model: "poisson", Rate: 11.5, LLCProb: 0.5},
		{Model: "burst", Rate: 34.5, LLCProb: 0.5, OnFrac: 0.2, OnMs: 1},
		{Model: "stream", Rate: 11.5, LLCProb: 0.5, Width: 4},
		{Model: "hotset", Rate: 11.5, LLCProb: 0.5, HotFrac: 0.25},
		{Model: "churn", Rate: 11.5, LLCProb: 0.5, ArrivalsPerMs: 0.1, LifeMs: 2, FootprintFrac: 0.5},
	}
}

// runPlan executes the query plan with a per-query rng seeded from the
// slot, isolating the model's schedule state from count-draw state.
func runPlan(m Model, qs []query) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		rng := xrand.New(uint64(q.slot)*977 + uint64(q.now))
		out[i] = m.Accesses(rng, Set{Slot: q.slot, Total: 2048}, q.last, q.now)
	}
	return out
}

// TestModelDeterminism: same seed, same query plan, same counts — for
// every model family.
func TestModelDeterminism(t *testing.T) {
	for _, sp := range allSpecs() {
		m1, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Model, err)
		}
		m2, _ := sp.Build()
		m1.Reset(7)
		m2.Reset(7)
		qs := testQueries()
		if a, b := runPlan(m1, qs), runPlan(m2, qs); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identical seeds diverged:\n%v\n%v", sp.Model, a, b)
		}
		// Reset must fully restore post-construction state.
		m1.Reset(7)
		if a, b := runPlan(m1, qs), runPlan(m2, qs); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Reset did not restore the initial state", sp.Model)
		}
	}
}

// TestQueryOrderInvariance: lazily built schedule state (burst phases,
// churn arrivals) must answer identically whether set A or set B syncs
// first at each time step — the host syncs sets in demand-access order,
// which varies between protocols.
func TestQueryOrderInvariance(t *testing.T) {
	for _, sp := range allSpecs() {
		forward, _ := sp.Build()
		reversed, _ := sp.Build()
		forward.Reset(9)
		reversed.Reset(9)
		qs := testQueries()
		a := runPlan(forward, qs)
		// Re-group the same queries so that at each `now`, sets sync in
		// the opposite order (plan is slot-major; rebuild time-major
		// reversed). Keys (slot, window) stay identical.
		perm := make([]int, 0, len(qs))
		windows := 5
		slots := len(qs) / windows
		for w := 0; w < windows; w++ {
			for s := slots - 1; s >= 0; s-- {
				perm = append(perm, s*windows+w)
			}
		}
		b := make([]int, len(qs))
		for _, i := range perm {
			q := qs[i]
			rng := xrand.New(uint64(q.slot)*977 + uint64(q.now))
			b[i] = reversed.Accesses(rng, Set{Slot: q.slot, Total: 2048}, q.last, q.now)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: per-set sync order changed the counts:\n%v\n%v", sp.Model, a, b)
		}
	}
}

// TestMeanRates checks every model's normalisation: over a long
// horizon, the mean access rate averaged across all sets approaches the
// Spec's Rate (in accesses/ms/set).
func TestMeanRates(t *testing.T) {
	const (
		// Enough sets that the hotset model's realized (binomial) hot
		// fraction stays close to its nominal hot_frac.
		total     = 2048
		horizon   = clock.Cycles(400 * CyclesPerMs) // 400 ms
		tolerance = 0.25
	)
	for _, sp := range allSpecs() {
		m, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Model, err)
		}
		m.Reset(11)
		rng := xrand.New(3)
		sum := 0
		for slot := 0; slot < total; slot++ {
			sum += m.Accesses(rng, Set{Slot: slot, Total: total}, 0, horizon)
		}
		perSetPerMs := float64(sum) / float64(total) / horizon.Millis()
		if math.Abs(perSetPerMs-sp.Rate) > tolerance*sp.Rate {
			t.Errorf("%s: mean rate %.2f/ms/set, want %.1f +/- %.0f%%",
				sp.Model, perSetPerMs, sp.Rate, tolerance*100)
		}
	}
}

func TestStreamStructure(t *testing.T) {
	sp := Spec{Model: "stream", Rate: 11.5, LLCProb: 0.5, Width: 4}
	m, _ := sp.Build()
	m.Reset(5)
	rng := xrand.New(1)
	// Counts are exact multiples of width, and over one full sweep
	// period every set is visited exactly once.
	perCycle := 11.5 / CyclesPerMs
	period := clock.Cycles(4 / perCycle) // width/rate cycles per sweep
	for slot := 0; slot < 64; slot++ {
		n := m.Accesses(rng, Set{Slot: slot, Total: 64}, 0, period)
		if n%4 != 0 {
			t.Fatalf("slot %d: %d accesses, not a multiple of width", slot, n)
		}
		if n < 4 || n > 8 {
			t.Errorf("slot %d: %d accesses over one sweep period, want ~4", slot, n)
		}
	}
	// The model is deterministic: it never draws from the host stream.
	before := xrand.New(77)
	after := xrand.New(77)
	m.Accesses(after, Set{Slot: 0, Total: 64}, 0, 1_000_000)
	if before.Uint64() != after.Uint64() {
		t.Error("stream consumed host-stream draws")
	}
}

func TestHotsetStructure(t *testing.T) {
	sp := Spec{Model: "hotset", Rate: 11.5, LLCProb: 0.5, HotFrac: 0.25}
	m, _ := sp.Build()
	m.Reset(13)
	const total = 2048
	window := clock.Cycles(50 * CyclesPerMs)
	hot := 0
	for slot := 0; slot < total; slot++ {
		rng := xrand.New(uint64(slot))
		if m.Accesses(rng, Set{Slot: slot, Total: total}, 0, window) > 0 {
			hot++
		}
	}
	frac := float64(hot) / total
	if frac < 0.18 || frac > 0.32 {
		t.Errorf("hot fraction %.3f, want ~0.25", frac)
	}
	// The collision pattern is stable across windows for a fixed seed.
	rng := xrand.New(9)
	slotCold := -1
	for slot := 0; slot < total; slot++ {
		if m.Accesses(rng, Set{Slot: slot, Total: total}, 0, window) == 0 {
			slotCold = slot
			break
		}
	}
	if slotCold >= 0 {
		if m.Accesses(rng, Set{Slot: slotCold, Total: total}, window, 4*window) != 0 {
			t.Error("a cold set became hot without a reseed")
		}
	}
}

func TestBurstStructure(t *testing.T) {
	sp := Spec{Model: "burst", Rate: 34.5, LLCProb: 0.5, OnFrac: 0.1, OnMs: 2}
	m, _ := sp.Build()
	m.Reset(21)
	// Scanning in fine windows, a burst tenant must show both silent and
	// active stretches (unlike a flat poisson at the same mean rate).
	rng := xrand.New(2)
	silent, active := 0, 0
	step := clock.Cycles(CyclesPerMs / 2) // 0.5 ms
	last := clock.Cycles(0)
	for i := 0; i < 400; i++ {
		now := last + step
		if m.Accesses(rng, Set{Slot: 1, Total: 256}, last, now) == 0 {
			silent++
		} else {
			active++
		}
		last = now
	}
	if silent == 0 || active == 0 {
		t.Errorf("burst tenant not phased: %d silent, %d active windows", silent, active)
	}
	if silent < active {
		t.Errorf("on_frac=0.1 should idle most windows: %d silent vs %d active", silent, active)
	}
}

func TestChurnStructure(t *testing.T) {
	sp := Spec{Model: "churn", Rate: 11.5, LLCProb: 0.5, ArrivalsPerMs: 0.05, LifeMs: 5, FootprintFrac: 0.5}
	m, _ := sp.Build()
	m.Reset(31)
	rng := xrand.New(4)
	// Instances cover half the sets each; over a long horizon some
	// windows are silent (no instance covering the slot) and some are
	// dense.
	silent, active := 0, 0
	step := clock.Cycles(2 * CyclesPerMs)
	last := clock.Cycles(0)
	for i := 0; i < 300; i++ {
		now := last + step
		if m.Accesses(rng, Set{Slot: 7, Total: 256}, last, now) == 0 {
			silent++
		} else {
			active++
		}
		last = now
	}
	if silent == 0 || active == 0 {
		t.Errorf("churn tenant not phased: %d silent, %d active windows", silent, active)
	}
}

// TestMemorylessMatchesAccesses pins the devirtualization contract: for
// a model advertising Memoryless, the inlined expression the hierarchy
// uses (rng.Poisson(window*rate)) must reproduce Accesses draw-for-draw
// on a lockstep rng, leaving both streams in identical states.
func TestMemorylessMatchesAccesses(t *testing.T) {
	m, err := Spec{Model: "poisson", Rate: 11.5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ml, ok := m.(Memoryless)
	if !ok {
		t.Fatal("poisson model does not advertise Memoryless")
	}
	rate := ml.PerCycleRate()
	a, b := xrand.New(91), xrand.New(91)
	last := clock.Cycles(0)
	windows := xrand.New(17)
	for i := 0; i < 5000; i++ {
		now := last + clock.Cycles(1+windows.Uint64()%100_000)
		want := m.Accesses(a, Set{Slot: int(windows.Uint64() % 512), Total: 512}, last, now)
		got := b.Poisson(float64(now-last) * rate)
		if got != want {
			t.Fatalf("window %d: inlined draw %d != Accesses %d", i, got, want)
		}
		last = now
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("inlined path left the rng stream in a different state")
	}
}

// FuzzTenantSpecRoundTrip: Parse never panics, and whatever it accepts
// renders through String to a spec with the same effective parameters
// (String fills the model's defaults, so both sides compare after
// WithDefaults) whose String is a fixed point.
func FuzzTenantSpecRoundTrip(f *testing.F) {
	for _, s := range []string{
		"poisson", "burst:rate=34.5,on_frac=0.1", "stream:width=8", "hotset:hot_frac=0.125",
		"churn:rate=11.5,llc_prob=0,arrivals_per_ms=0.1,life_ms=2,footprint_frac=0.75",
		"poisson:rate=-0", "poisson:rate=5e-324", "stream:width=2147483647",
		"burst:on_ms=+Inf", "hotset:hot_frac=NaN", " burst : rate = 0x1p-3 ",
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
