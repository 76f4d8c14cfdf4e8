package scenario

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 6 {
		t.Fatalf("expected at least 6 scenarios, got %v", ids)
	}
	for _, want := range []string{"e2e/keyrecovery", "e2e/extract", "covert/channel", "scan/psd"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("scenario %q not registered", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown id")
	}
	if len(List()) != len(ids) {
		t.Error("List and IDs disagree")
	}
	// Every scenario is mirrored into the sweep cell registry.
	for _, id := range ids {
		cell, ok := experiments.LookupCell("scenario/" + id)
		if !ok {
			t.Errorf("scenario %q has no cell experiment", id)
			continue
		}
		if cell.Unit != "cycles" {
			t.Errorf("scenario cell %q unit = %q, want cycles", id, cell.Unit)
		}
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := RunWithObs(context.Background(), "nope", nil, nil, 1, 1, 1, nil); err == nil {
		t.Fatal("RunWithObs accepted an unknown scenario")
	}
	if _, err := RunWithObs(context.Background(), "scan/psd", nil, nil, 0, 1, 1, nil); err == nil {
		t.Fatal("RunWithObs accepted zero trials")
	}
}

func TestAggregateOutcomes(t *testing.T) {
	outs := []Outcome{
		{Success: true, TotalCycles: 100, BitsRecovered: 10, BitsTotal: 20, KeyRecovered: true,
			Steps: []Step{{Name: "a", OK: true, Cycles: 40}, {Name: "b", OK: true, Cycles: 60}}},
		{Success: false, TotalCycles: 50, BitsRecovered: 2, BitsTotal: 20,
			Steps: []Step{{Name: "a", OK: false, Cycles: 50}}},
	}
	agg := AggregateOutcomes(outs)
	if agg.Trials != 2 || agg.Successes != 1 || agg.SuccessRate != 0.5 {
		t.Fatalf("bad success accounting: %+v", agg)
	}
	if agg.SuccessLo >= agg.SuccessRate || agg.SuccessHi <= agg.SuccessRate {
		t.Fatalf("Wilson interval [%v, %v] does not bracket the rate", agg.SuccessLo, agg.SuccessHi)
	}
	if agg.CyclesMean != 100 || agg.CyclesMedian != 100 {
		t.Fatalf("latency stats must cover successful trials only: %+v", agg)
	}
	if agg.BitsRecovered != 12 || agg.BitsTotal != 40 || agg.KeysRecovered != 1 {
		t.Fatalf("bad bit/key accounting: %+v", agg)
	}
	if len(agg.Steps) != 2 {
		t.Fatalf("want 2 step aggregates, got %v", agg.Steps)
	}
	a := agg.Steps[0]
	if a.Name != "a" || a.Reached != 2 || a.Successes != 1 || a.SuccessRate != 0.5 {
		t.Fatalf("step a aggregate wrong: %+v", a)
	}
	b := agg.Steps[1]
	if b.Name != "b" || b.Reached != 1 || b.Successes != 1 || b.CyclesMean != 60 {
		t.Fatalf("step b aggregate wrong: %+v", b)
	}
	// Empty input yields the vacuous interval, no NaNs.
	empty := AggregateOutcomes(nil)
	if empty.SuccessLo != 0 || empty.SuccessHi != 1 || empty.CyclesMean != 0 {
		t.Fatalf("empty aggregate wrong: %+v", empty)
	}
}

func TestAttemptSubsets(t *testing.T) {
	rng := xrand.New(1)
	subs := attemptSubsets(12, 5, 24, rng)
	if len(subs) == 0 {
		t.Fatal("no attempts")
	}
	for i, want := range []int{0, 1, 2, 3, 4} {
		if subs[0][i] != want {
			t.Fatalf("first attempt must be the top-ranked subset, got %v", subs[0])
		}
	}
	seen := map[string]bool{}
	for _, s := range subs {
		if len(s) != 5 {
			t.Fatalf("subset size %d", len(s))
		}
		for i := range s {
			if s[i] < 0 || s[i] >= 12 || (i > 0 && s[i] <= s[i-1]) {
				t.Fatalf("subset not sorted-unique in range: %v", s)
			}
		}
		key := ""
		for _, v := range s {
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate subset %v", s)
		}
		seen[key] = true
	}
	// Degenerate cases.
	if got := attemptSubsets(3, 5, 10, xrand.New(2)); got != nil {
		t.Fatalf("k > n must yield no attempts, got %v", got)
	}
	if got := attemptSubsets(5, 5, 10, xrand.New(3)); len(got) != 1 {
		t.Fatalf("n == k must yield exactly the one subset, got %v", got)
	}
}

func TestWalkCombReadsPlantedLadder(t *testing.T) {
	// Synthesize a clean ladder trace: boundary tooth per iteration,
	// midpoint tooth on 0-bits, and verify the comb reader returns the
	// planted bits and length.
	const iter = 9700.0
	bits := []uint{1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0}
	var times []clock.Cycles
	t0 := 50_000.0
	for k, b := range bits {
		times = append(times, clock.Cycles(t0+float64(k)*iter))
		if b == 0 {
			times = append(times, clock.Cycles(t0+(float64(k)+0.53)*iter))
		}
	}
	got, confirmed, suspicious, iters := walkComb(times, iter, t0)
	if iters != len(bits) {
		t.Fatalf("iters = %d, want %d", iters, len(bits))
	}
	for k, b := range bits {
		if got[k] != b {
			t.Fatalf("bit %d = %d, want %d", k, got[k], b)
		}
		if !confirmed[k] || suspicious[k] {
			t.Fatalf("slot %d: confirmed=%v suspicious=%v", k, confirmed[k], suspicious[k])
		}
	}
	// An anchor is found and validated on the same trace.
	ai, ok := findAnchor(times, iter, 0)
	if !ok || times[ai] != times[0] {
		t.Fatalf("findAnchor = (%d, %v), want the first tooth", ai, ok)
	}
	// A lone noise detection long before the ladder must not anchor.
	noisy := append([]clock.Cycles{clock.Cycles(t0 - 40*iter)}, times...)
	ai, ok = findAnchor(noisy, iter, 0)
	if !ok || noisy[ai] != times[0] {
		t.Fatalf("findAnchor with pre-ladder noise = (%d, %v), want the real ladder start", ai, ok)
	}
}

// TestParallelEquivalence is the engine determinism contract applied to
// whole attacks: for every registered scenario, a 2-trial report must be
// byte-identical between -parallel=1 and -parallel=8.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario pipelines are slow")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var reports [][]byte
			for _, workers := range []int{1, 8} {
				rep, err := RunWithObs(context.Background(), id, nil, nil, 2, workers, 7, nil)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				reports = append(reports, buf.Bytes())
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Errorf("parallel=1 and parallel=8 reports differ:\n%s\n---\n%s", reports[0], reports[1])
			}
		})
	}
}

// TestCellConfigCarriesVariant: a scenario cell keeps the grid's
// config except for what defines the scenario variant — a baked tenant
// workload replaces the grid's flat poisson background (but not a swept
// tenant model), and a baked defense fills an undefended grid cell. A
// variant whose own background is flat poisson leaves the grid's
// noise rate in force.
func TestCellConfigCarriesVariant(t *testing.T) {
	grid := func(model string) hierarchy.Config {
		return hierarchy.Scaled(4).WithTenants(tenant.Spec{Model: model, Rate: 0.29, LLCProb: 0.5})
	}
	own := func(id string) hierarchy.Config {
		sc, ok := Lookup(id)
		if !ok {
			t.Fatalf("scenario %q not registered", id)
		}
		return sc.Config()
	}
	for _, tc := range []struct {
		id, gridModel string
		want          []tenant.Spec
	}{
		{"covert/channel/stream", "poisson", own("covert/channel/stream").Tenants},
		{"covert/channel/stream", "burst", grid("burst").Tenants},
		{"covert/channel/noisy", "poisson", grid("poisson").Tenants},
		{"covert/channel", "poisson", grid("poisson").Tenants},
	} {
		got := cellConfig(own(tc.id), grid(tc.gridModel))
		if !reflect.DeepEqual(got.Tenants, tc.want) {
			t.Errorf("%s on a %s grid: tenants %+v, want %+v", tc.id, tc.gridModel, got.Tenants, tc.want)
		}
	}
	if got := cellConfig(own("covert/channel/quiesce"), grid("poisson")); got.Defense == nil || got.Defense.Model != "quiesce" {
		t.Errorf("quiesce variant's defense did not carry over: %+v", got.Defense)
	}
	swept := grid("poisson").WithDefense(defense.Spec{Model: "partition", Ways: 4})
	if got := cellConfig(own("covert/channel/quiesce"), swept); got.Defense.Model != "partition" {
		t.Errorf("grid defense overridden by the variant's: %+v", got.Defense)
	}
}

// TestPhaseSpansMatchOutcome runs one traced trial of a scenario per
// Run function (and the covert channel's failed set-up) and checks the
// trace against the report: the phase spans are the Outcome's steps
// plus "unattributed" fillers, name for name, with equal ok flags and
// sim cycles, the fillers summing to the cycles no step covered; no
// filler overlaps a step (e2e/keyrecovery seed 2 has a gap before
// extract); every span with at least 1e5 sim cycles carries at least
// 1 µs of wall time, since that much simulation cannot run faster; and
// the spans' wall times sum to no more than the trial's.
func TestPhaseSpansMatchOutcome(t *testing.T) {
	for _, tc := range []struct {
		id   string
		seed uint64
	}{
		{"scan/psd", 1},
		{"e2e/extract", 1},
		{"e2e/keyrecovery", 2},
		{"covert/channel", 2},
		{"covert/channel/quiesce", 3},
	} {
		tracer := obs.NewTracer()
		t0 := time.Now()
		rep, err := RunWithObs(context.Background(), tc.id, nil, nil, 1, 1, tc.seed, &obs.Sink{Tracer: tracer})
		trialWall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		o := rep.Outcomes[0]
		want := map[string]Step{}
		filler := o.TotalCycles
		for _, s := range o.Steps {
			want[s.Name] = s
			filler -= s.Cycles
		}
		if filler > 0 {
			want["unattributed"] = Step{Name: "unattributed", OK: o.Success, Cycles: filler}
		}
		got := map[string]Step{}
		var wall time.Duration
		var steps, fillers []obs.Span
		for _, s := range tracer.Spans() {
			if s.Cat != "phase" {
				continue
			}
			cycles := s.Dur
			if s.Name == "unattributed" {
				fillers = append(fillers, s)
				cycles += got[s.Name].Cycles
			} else {
				steps = append(steps, s)
			}
			got[s.Name] = Step{Name: s.Name, OK: s.OK, Cycles: cycles}
			wall += s.Wall
			if s.Dur >= 1e5 && s.Wall < time.Microsecond {
				t.Errorf("%s seed %d: phase %q ran %d sim cycles in %v of wall time", tc.id, tc.seed, s.Name, s.Dur, s.Wall)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s seed %d: phase spans %+v, want the outcome's steps and filler %+v", tc.id, tc.seed, got, want)
		}
		for _, f := range fillers {
			for _, s := range steps {
				if f.Start < s.Start+s.Dur && s.Start < f.Start+f.Dur {
					t.Errorf("%s seed %d: filler [%d, +%d) overlaps step %q [%d, +%d)", tc.id, tc.seed, f.Start, f.Dur, s.Name, s.Start, s.Dur)
				}
			}
		}
		if wall > trialWall {
			t.Errorf("%s seed %d: phase spans book %v of wall time, the trial took %v", tc.id, tc.seed, wall, trialWall)
		}
	}
}
