// Package scenario is the registry of end-to-end attack scenarios: each
// scenario runs one FULL pipeline per trial — eviction-set construction,
// PSD target identification, Parallel-Probing nonce extraction, lattice
// key recovery, or a covert channel — on a pooled simulated host via the
// parallel trial engine (internal/experiments), and returns a structured
// Outcome (success, per-step cycle budgets, bits recovered, channel
// capacity). Where internal/experiments reproduces the paper's per-step
// tables and figures, a scenario measures the §7 protocol as a whole, so
// success RATES and latency DISTRIBUTIONS of entire attacks can be
// estimated across many trials and swept across configurations.
//
// Every scenario is also registered as a cell experiment
// ("scenario/<id>", see experiments.RegisterCell), which lets
// internal/sweep place whole attacks in a replacement-policy x
// associativity x slice x noise grid exactly like micro-experiments.
//
// Determinism: a scenario trial draws all randomness from the engine's
// per-trial seed and touches no state outside its pooled host, so a
// Report is byte-identical for every worker count (the cmd/llcattack
// -parallel contract, mirrored from cmd/llcrepro and cmd/llcsweep).
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tenant"
)

// Step is one pipeline stage of a scenario trial with its virtual-cycle
// budget, as the trial's recorder (obs.Phases) ran it. Steps appear in
// execution order; a failed trial stops at its first failing step.
type Step = obs.Step

// Outcome is the structured result of one scenario trial.
type Outcome struct {
	// Success is the scenario's own end-to-end success notion (signal
	// found, correct set identified, key recovered, channel usable).
	Success bool `json:"success"`
	// Steps carries the per-step cycle budgets in pipeline order.
	Steps []Step `json:"steps"`
	// TotalCycles is the whole pipeline's virtual time.
	TotalCycles clock.Cycles `json:"total_cycles"`

	// Bit accounting (extraction and covert scenarios): bits recovered /
	// observed, and recovered bits that were wrong (privileged scoring).
	BitsRecovered int `json:"bits_recovered,omitempty"`
	BitsTotal     int `json:"bits_total,omitempty"`
	BitsWrong     int `json:"bits_wrong,omitempty"`

	// Covert-channel scenarios: effective capacity in bits per virtual
	// second, modelling the channel as a binary erasure channel.
	CapacityBps float64 `json:"capacity_bps,omitempty"`

	// Key-recovery scenarios: leaks fed to the lattice, subset attempts
	// consumed, and whether the recovered key matched ground truth.
	Leaks           int  `json:"leaks,omitempty"`
	LatticeAttempts int  `json:"lattice_attempts,omitempty"`
	KeyRecovered    bool `json:"key_recovered,omitempty"`
}

// Scenario is one registered end-to-end attack.
type Scenario struct {
	ID   string
	Desc string
	// Config builds the scenario's default host configuration, used for
	// standalone runs (cmd/llcattack). Sweep cells override it with grid
	// coordinates instead.
	Config func() hierarchy.Config
	// Run executes one full pipeline on the given config. It must obey
	// the engine's determinism contract: all randomness from t.Seed (or
	// seeds derived from it), no state outside hosts from t.Host.
	Run func(t *experiments.Trial, cfg hierarchy.Config) Outcome
}

var scenarios = map[string]Scenario{}

// Register adds a scenario to the registry and mirrors it into the cell
// experiment registry as "scenario/<id>", so sweeps can grid whole
// attacks. Scenario cells are monitoring-dominated pipelines, so they
// take a sweep's noise_rates raw (ConstructionNoise unset): the
// equivalent-noise rescaling documented for construction cells does not
// apply, and the construction step inside a scenario sees the declared
// rate as-is. A cell runs on the sweep's grid config, with one
// refinement: whatever DEFINES the scenario variant — a baked defense
// or a baked tenant workload — carries over unless the grid explicitly
// swept that axis, so a cell named scenario/covert/channel/quiesce
// really measures a quiesced host even in a grid whose defenses axis is
// the default "none" (and a defenses-axis value, when present, wins).
// Register panics on duplicate ids (a programming error).
func Register(sc Scenario) {
	if _, dup := scenarios[sc.ID]; dup {
		panic("scenario: duplicate scenario id " + sc.ID)
	}
	if sc.Config == nil || sc.Run == nil {
		panic("scenario: " + sc.ID + " missing Config or Run")
	}
	scenarios[sc.ID] = sc
	experiments.RegisterCell(experiments.Cell{
		ID:   "scenario/" + sc.ID,
		Desc: "end-to-end scenario: " + sc.Desc,
		Unit: "cycles",
		Run: func(t *experiments.Trial, cfg hierarchy.Config) experiments.Sample {
			o := sc.Run(t, cellConfig(sc.Config(), cfg))
			return experiments.Sample{OK: o.Success, Value: float64(o.TotalCycles)}
		},
	})
}

// cellConfig returns the grid config of a scenario cell with the
// variant-defining parts of the scenario's own config carried over: its
// defense when the grid's defenses axis is "none", and its tenant
// workload when the grid cell runs the paper's flat poisson background
// (the tenant_models default) and the scenario's own is anything else.
// A scenario whose own background is itself one poisson tenant (at any
// rate) takes the grid's, so noise_rates stays a real axis for it.
func cellConfig(own, grid hierarchy.Config) hierarchy.Config {
	if grid.Defense == nil && own.Defense != nil {
		grid = grid.WithDefense(*own.Defense)
	}
	if flatPoisson(grid.Tenants) && !flatPoisson(own.Tenants) {
		grid = grid.WithTenants(own.Tenants...)
	}
	return grid
}

// flatPoisson reports whether specs is the paper's flat background:
// exactly one poisson tenant.
func flatPoisson(specs []tenant.Spec) bool {
	return len(specs) == 1 && specs[0].Model == "poisson"
}

// Lookup returns the scenario registered under id.
func Lookup(id string) (Scenario, bool) {
	sc, ok := scenarios[id]
	return sc, ok
}

// IDs returns the sorted ids of all registered scenarios.
func IDs() []string {
	ids := make([]string, 0, len(scenarios))
	for id := range scenarios {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// List returns "id  description" lines for every scenario, sorted by id
// (the -list output of cmd/llcattack).
func List() []string {
	ids := IDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%-24s %s", id, scenarios[id].Desc)
	}
	return out
}

// StepAggregate summarizes one pipeline step across the trials that
// reached it.
type StepAggregate struct {
	Name string `json:"name"`
	// Reached counts trials that executed the step at all; Successes
	// counts those where it succeeded. The Wilson interval is over
	// Successes/Reached.
	Reached     int     `json:"reached"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate"`
	SuccessLo   float64 `json:"success_lo"`
	SuccessHi   float64 `json:"success_hi"`
	// Cycle distribution over successful executions of the step.
	CyclesMean   float64 `json:"cycles_mean"`
	CyclesMedian float64 `json:"cycles_median"`
}

// Aggregate is the success-rate and latency summary of a scenario run.
type Aggregate struct {
	Trials      int     `json:"trials"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate"`
	// Wilson 95% score interval on the end-to-end success rate.
	SuccessLo float64 `json:"success_lo"`
	SuccessHi float64 `json:"success_hi"`
	// Whole-pipeline latency distribution over successful trials.
	CyclesMean   float64 `json:"cycles_mean"`
	CyclesMedian float64 `json:"cycles_median"`
	CyclesP95    float64 `json:"cycles_p95"`
	// Per-step aggregation in pipeline order.
	Steps []StepAggregate `json:"steps,omitempty"`
	// Summed bit accounting and mean channel capacity, where applicable.
	BitsRecovered   int     `json:"bits_recovered,omitempty"`
	BitsTotal       int     `json:"bits_total,omitempty"`
	BitsWrong       int     `json:"bits_wrong,omitempty"`
	CapacityBpsMean float64 `json:"capacity_bps_mean,omitempty"`
	KeysRecovered   int     `json:"keys_recovered,omitempty"`
}

// Report is the artifact of one scenario run: per-trial outcomes plus
// the aggregate. For a fixed seed it is byte-identical at every worker
// count.
type Report struct {
	Scenario string `json:"scenario"`
	Desc     string `json:"desc"`
	Trials   int    `json:"trials"`
	Seed     uint64 `json:"seed"`
	// Tenants records a background-workload override (RunWithObs / the
	// cmd/llcattack -tenants flag), so the artifact self-describes the
	// environment it measured; empty for the scenario's own config.
	Tenants []tenant.Spec `json:"tenants,omitempty"`
	// Defense records an LLC-countermeasure override (RunWithObs / the
	// cmd/llcattack -defense flag); nil for the scenario's own config
	// (which may itself carry a defense in the defended variants).
	Defense   *defense.Spec `json:"defense,omitempty"`
	Outcomes  []Outcome     `json:"outcomes"`
	Aggregate Aggregate     `json:"aggregate"`
}

// WriteJSON renders the report as indented JSON. Encoding is fully
// deterministic: struct-ordered keys, shortest-form floats.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RunWithObs executes trials of the scenario across workers (<= 0
// selects GOMAXPROCS) and aggregates the outcomes; the report depends
// only on (id, tenants, def, trials, seed). Tenant specs replace the
// scenario's background workload and def replaces its LLC defense (the
// cmd/llcattack -tenants / -defense flags); nil values keep the
// scenario's own environment. Tenant specs must already be validated
// (tenant.ParseList / Spec.Validate); a defense override must survive
// hierarchy.Config.Validate against the scenario's geometry, reported
// as an error rather than a panic. Cancelling ctx (the CLI's signal
// context) stops the run between trials and returns the context's
// error; a completed report never depends on ctx. When sink.Tracer is
// set every trial's pipeline steps land on the trace as cat="phase"
// spans on PID track 0 (named after the scenario), with the trial index
// as TID; when sink.Metrics is set the engine's trial metrics record.
// A nil sink runs untraced, and the report is byte-identical with or
// without one (determinism clause 9).
func RunWithObs(ctx context.Context, id string, tenants []tenant.Spec, def *defense.Spec, trials, workers int, seed uint64, sink *obs.Sink) (*Report, error) {
	sc, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (known: %v)", id, IDs())
	}
	if trials < 1 {
		return nil, fmt.Errorf("scenario: trials must be >= 1, got %d", trials)
	}
	cfg := sc.Config()
	if len(tenants) > 0 {
		cfg = cfg.WithTenants(tenants...)
	}
	if def != nil {
		cfg = cfg.WithDefense(*def)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", sc.ID, err)
	}
	if sink != nil && sink.Tracer != nil {
		sink.Tracer.SetProcessName(0, "scenario "+sc.ID)
	}
	// Per-trial outcome slots keep the writes race-free at any worker
	// count, like the engine's own sample slice.
	outs := make([]Outcome, trials)
	_, err := experiments.RunTrials(ctx, trials, workers, experiments.SubSeed(seed, "scenario", sc.ID), sink, func(t *experiments.Trial) experiments.Sample {
		o := sc.Run(t, cfg)
		outs[t.Index] = o
		return experiments.Sample{OK: o.Success, Value: float64(o.TotalCycles)}
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", sc.ID, err)
	}
	return &Report{
		Scenario:  sc.ID,
		Desc:      sc.Desc,
		Trials:    trials,
		Seed:      seed,
		Tenants:   tenants,
		Defense:   def,
		Outcomes:  outs,
		Aggregate: AggregateOutcomes(outs),
	}, nil
}

// AggregateOutcomes folds per-trial outcomes into the success-rate and
// latency summary, with Wilson 95% intervals on every rate.
func AggregateOutcomes(outs []Outcome) Aggregate {
	agg := Aggregate{Trials: len(outs)}
	var okCycles []float64
	type stepAcc struct {
		reached, succ int
		cycles        []float64
	}
	var stepOrder []string
	accs := map[string]*stepAcc{}
	for _, o := range outs {
		if o.Success {
			agg.Successes++
			okCycles = append(okCycles, float64(o.TotalCycles))
		}
		agg.BitsRecovered += o.BitsRecovered
		agg.BitsTotal += o.BitsTotal
		agg.BitsWrong += o.BitsWrong
		agg.CapacityBpsMean += o.CapacityBps
		if o.KeyRecovered {
			agg.KeysRecovered++
		}
		for _, s := range o.Steps {
			acc, ok := accs[s.Name]
			if !ok {
				acc = &stepAcc{}
				accs[s.Name] = acc
				stepOrder = append(stepOrder, s.Name)
			}
			acc.reached++
			if s.OK {
				acc.succ++
				acc.cycles = append(acc.cycles, float64(s.Cycles))
			}
		}
	}
	if agg.Trials > 0 {
		agg.SuccessRate = float64(agg.Successes) / float64(agg.Trials)
		agg.CapacityBpsMean /= float64(agg.Trials)
	}
	agg.SuccessLo, agg.SuccessHi = stats.Wilson(agg.Successes, agg.Trials, 1.96)
	agg.CyclesMean = stats.Mean(okCycles)
	agg.CyclesMedian = stats.Median(okCycles)
	agg.CyclesP95 = stats.Percentile(okCycles, 95)
	for _, name := range stepOrder {
		acc := accs[name]
		sa := StepAggregate{
			Name:         name,
			Reached:      acc.reached,
			Successes:    acc.succ,
			CyclesMean:   stats.Mean(acc.cycles),
			CyclesMedian: stats.Median(acc.cycles),
		}
		if acc.reached > 0 {
			sa.SuccessRate = float64(acc.succ) / float64(acc.reached)
		}
		sa.SuccessLo, sa.SuccessHi = stats.Wilson(acc.succ, acc.reached, 1.96)
		agg.Steps = append(agg.Steps, sa)
	}
	return agg
}
