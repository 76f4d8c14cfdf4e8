// Package sweep expands a declarative configuration grid — replacement
// policy x SF associativity x slice count x noise level x tenant
// workload model x LLC defense x cell experiment — into hierarchy
// configs and runs every cell through the
// parallel trial engine in internal/experiments, aggregating the
// per-cell samples into one deterministic artifact (JSON or CSV) with
// deltas against the grid's baseline cell.
//
// The paper's §6.1 robustness claim is that eviction-set construction
// and Parallel Probing work irrespective of the replacement policy and
// cache organisation; a sweep is how that claim is checked as a grid
// rather than a point.
//
// Determinism: the whole grid flattens into a single RunTrials call
// (RunCells, the one grid executor, which internal/campaign runs on
// too), and the artifact is byte-identical for every worker count. A
// cell's trial seeds are derived from the cell's own coordinates (not
// from its flat position in the grid), so adding or removing grid
// values never changes the numbers of the cells that remain —
// artifacts from different grids diff cleanly against each other.
package sweep

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

// Spec declares a sweep grid. Zero-valued axes take defaults (see
// Normalize); the cross product of all axes, times Experiments, is the
// set of cells. Specs round-trip through JSON for -spec files.
type Spec struct {
	// Experiments names the cell experiments to run in every grid cell
	// (see experiments.CellIDs; cmd/llcsweep -list prints them).
	Experiments []string `json:"experiments"`
	// Policies names the LLC/SF replacement policies to sweep
	// (cache.ParsePolicy names: LRU, Tree-PLRU, SRRIP, QLRU, Random).
	Policies []string `json:"policies"`
	// SFAssocs sweeps the Snoop Filter associativity; the LLC follows one
	// way below (hierarchy.Config.WithSFAssociativity).
	SFAssocs []int `json:"sf_assocs"`
	// Slices sweeps the LLC/SF slice count of the scaled host.
	Slices []int `json:"slices"`
	// NoiseRates sweeps the background tenant rate in accesses/ms/set
	// (0.29 = quiescent local, 11.5 = Cloud Run).
	NoiseRates []float64 `json:"noise_rates"`
	// TenantModels sweeps the background-workload SHAPE at each noise
	// rate: tenant model names (tenant.Models; poisson, burst, stream,
	// hotset, churn), each built with its documented default parameters
	// at the cell's noise rate. "poisson" is the paper's flat noise
	// process — and is the default, so existing specs and artifacts are
	// unchanged.
	TenantModels []string `json:"tenant_models,omitempty"`
	// Defenses sweeps LLC countermeasures: compact defense.Parse spec
	// strings ("partition:ways=4", "randomize:period=100000",
	// "scatter", "quiesce:quantum=256,jitter=0") plus "none" for the
	// undefended host. "none" is the default, so existing specs and
	// artifacts keep their exact numbers — undefended cells carry the
	// same seed labels as before the axis existed.
	Defenses []string `json:"defenses,omitempty"`
	// Trials is the number of trials per cell.
	Trials int `json:"trials"`
	// Seed roots all randomness; a fixed seed fixes the artifact
	// byte-for-byte. Every value is literal, including 0 (cmd/llcsweep
	// supplies its default of 1, not this package), so the spec embedded
	// in an artifact always reproduces that artifact exactly.
	Seed uint64 `json:"seed"`
}

// DecodeSpec reads one JSON Spec from r, the only way a spec crosses
// the process boundary (spec files, daemon submits, the daemon's
// persisted specs). It is strict: an unknown field is an error, and so
// is anything but whitespace after the spec's value, because decoding
// only the first of two values would run a different grid than the
// input appears to declare. r is read to EOF.
func DecodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, err
	}
	// A second Decode, not dec.More: More reports false for a stray
	// closing ']' or '}'.
	var extra json.RawMessage
	switch err := dec.Decode(&extra); {
	case err == io.EOF:
		return spec, nil
	case err == nil:
		return Spec{}, errors.New("trailing data after the spec")
	default:
		return Spec{}, fmt.Errorf("after the spec: %w", err)
	}
}

// Normalize fills defaulted fields in place: a small but meaningful
// grid (BinS construction across all five policies on the quiescent
// scaled host) with 10 trials per cell. Seed is never touched — 0 is a
// legitimate seed.
func (s *Spec) Normalize() {
	if len(s.Experiments) == 0 {
		s.Experiments = []string{"evset/bins"}
	}
	if len(s.Policies) == 0 {
		for _, k := range cache.Policies() {
			s.Policies = append(s.Policies, k.String())
		}
	}
	if len(s.SFAssocs) == 0 {
		s.SFAssocs = []int{8}
	}
	if len(s.Slices) == 0 {
		s.Slices = []int{4}
	}
	if len(s.NoiseRates) == 0 {
		s.NoiseRates = []float64{0.29}
	}
	if len(s.TenantModels) == 0 {
		s.TenantModels = []string{"poisson"}
	}
	if len(s.Defenses) == 0 {
		s.Defenses = []string{"none"}
	}
	if s.Trials == 0 {
		s.Trials = 10
	}
}

// Validate checks every axis value, returning the first problem. It
// validates against the scaled base geometry the sweep builds on.
func (s *Spec) Validate() error {
	if s.Trials < 1 {
		return fmt.Errorf("sweep: trials must be >= 1, got %d", s.Trials)
	}
	for _, id := range s.Experiments {
		if _, ok := experiments.LookupCell(id); !ok {
			return fmt.Errorf("sweep: unknown cell experiment %q (known: %v)", id, experiments.CellIDs())
		}
	}
	for _, p := range s.Policies {
		if _, err := cache.ParsePolicy(p); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	base := hierarchy.Scaled(2)
	for _, a := range s.SFAssocs {
		if a < 2 || a >= base.L2Ways {
			return fmt.Errorf("sweep: SF associativity %d out of range [2, %d)", a, base.L2Ways)
		}
	}
	for _, n := range s.Slices {
		if n < 1 || n > 64 {
			return fmt.Errorf("sweep: slice count %d out of range [1, 64]", n)
		}
	}
	for _, r := range s.NoiseRates {
		if r < 0 {
			return fmt.Errorf("sweep: negative noise rate %g", r)
		}
	}
	for _, m := range s.TenantModels {
		if err := (tenant.Spec{Model: m, Rate: 1}).Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, d := range s.Defenses {
		sp, err := defense.ParseOpt(d)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if sp == nil {
			continue
		}
		// Cross-check the defense against every swept geometry now (the
		// single validation path), so a partition too wide for the
		// smallest SF associativity fails here, not mid-grid.
		for _, a := range s.SFAssocs {
			cfg := base.WithSFAssociativity(a).WithDefense(*sp)
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("sweep: defense %q at sf_assoc %d: %w", d, a, err)
			}
		}
	}
	return nil
}

// CellResult is one cell's aggregated report. Mean/Stddev/Median
// summarize Sample.Value over successful trials (Unit names the value's
// unit); SuccessRate is the fraction of trials that succeeded.
type CellResult struct {
	Experiment string  `json:"experiment"`
	Policy     string  `json:"policy"`
	SFAssoc    int     `json:"sf_assoc"`
	Slices     int     `json:"slices"`
	NoiseRate  float64 `json:"noise_rate"`
	// TenantModel is the background-workload shape at the cell's noise
	// rate ("poisson" is the paper's flat process).
	TenantModel string `json:"tenant_model"`
	// Defense is the cell's LLC countermeasure in canonical compact
	// form ("none" is the undefended host).
	Defense string `json:"defense"`

	Unit        string  `json:"unit"`
	Trials      int     `json:"trials"`
	SuccessRate float64 `json:"success_rate"`
	Mean        float64 `json:"mean"`
	Stddev      float64 `json:"stddev"`
	Median      float64 `json:"median"`
	// P95 is the 95th percentile of Sample.Value over successful trials
	// — the tail-cost column attack-vs-defense artifacts report.
	P95 float64 `json:"p95"`

	// Baseline marks the cell every other cell of the same experiment is
	// compared against: the one at the first value of every axis.
	Baseline bool `json:"baseline,omitempty"`
	// DeltaSuccess is this cell's success rate minus the baseline's
	// (absolute difference); DeltaMean is (mean - baseline mean) /
	// baseline mean (relative). Omitted on the baseline cell itself.
	DeltaSuccess *float64 `json:"delta_success,omitempty"`
	DeltaMean    *float64 `json:"delta_mean,omitempty"`
}

// Result is the aggregated sweep artifact.
type Result struct {
	Spec  Spec         `json:"spec"`
	Cells []CellResult `json:"cells"`
}

// Cell is one expanded grid point before aggregation. The campaign
// layer (internal/campaign) consumes expanded cells directly so it can
// run, checkpoint and resume them one at a time; within this package
// they only ever flow from Expand into Aggregate.
type Cell struct {
	// Exp is the registered cell experiment the cell runs.
	Exp experiments.Cell
	// Policy is the parsed replacement policy; PolicyName its canonical
	// spelling (the artifact row value).
	Policy     cache.PolicyKind
	PolicyName string
	// SFAssoc, Slices, NoiseRate, TenantModel and DefenseName are the
	// cell's remaining grid coordinates, exactly as they appear in
	// CellResult rows.
	SFAssoc     int
	Slices      int
	NoiseRate   float64
	TenantModel string
	DefenseName string
	// Config is the fully materialised hierarchy config the cell's
	// trials run on.
	Config hierarchy.Config
	// Seed is the cell's base seed, derived from its coordinates alone
	// (never from its flat grid position): trial i of this cell runs on
	// xrand.Stream(Seed, i) whichever cells share its RunCells call.
	Seed uint64
	// Key is the canonical cell coordinate string ("|"-joined seed
	// labels). It identifies the cell in checkpoint artifacts: two cells
	// share a Key exactly when they share a Seed, so a record keyed by
	// it is valid across grid reshapes, like the seeds themselves.
	Key string
}

// Expand materialises the spec's cells in deterministic order:
// experiments outermost, then policies, associativities, slice counts,
// noise rates, tenant models, defenses. The spec must already have
// passed Normalize and Validate — the single validation path — so
// failed lookups here are programming errors.
func Expand(s Spec) []Cell {
	var out []Cell
	// Resolve the defense axis once, outside the nested loops: each
	// value becomes a (canonical name, spec) pair, with "none" as the
	// undefended nil. Validate already parsed every entry, so a failure
	// here is a programming error, not a typo to swallow.
	type defAxis struct {
		name string
		spec *defense.Spec
	}
	defs := make([]defAxis, len(s.Defenses))
	for i, d := range s.Defenses {
		sp, err := defense.ParseOpt(d)
		if err != nil {
			panic("sweep: Expand called with unvalidated defense " + d)
		}
		defs[i] = defAxis{name: "none", spec: sp}
		if sp != nil {
			// The canonical String form names the cell, so sparse and
			// explicit spellings of the same defense land on the same
			// seeds and the same artifact rows.
			defs[i].name = sp.String()
		}
	}
	for _, id := range s.Experiments {
		ce, ok := experiments.LookupCell(id)
		if !ok {
			panic("sweep: Expand called with unvalidated experiment " + id)
		}
		for _, pname := range s.Policies {
			kind, err := cache.ParsePolicy(pname)
			if err != nil {
				panic("sweep: Expand called with unvalidated policy " + pname)
			}
			for _, assoc := range s.SFAssocs {
				for _, slices := range s.Slices {
					for _, rate := range s.NoiseRates {
						for _, model := range s.TenantModels {
							for _, def := range defs {
								cfg := hierarchy.Scaled(slices).
									WithSFAssociativity(assoc).
									WithSharedPolicy(kind)
								// Noise rates are declared in the paper's unit. For
								// construction-protocol cells the scaled host must run a
								// proportionally higher rate for the declared rate to be
								// equivalent (otherwise Cloud Run-level noise is invisible
								// to the shorter test windows — see ConstructionNoiseScale);
								// monitoring cells keep the raw rate. The scaling applies
								// to every tenant model alike: it rescales the mean, the
								// model shapes how that mean is distributed.
								effRate := rate
								if ce.ConstructionNoise {
									effRate *= experiments.ConstructionNoiseScale(cfg, false)
								}
								cfg = cfg.WithTenants(tenant.Spec{Model: model, Rate: effRate, LLCProb: 0.5})
								cfg.Name = fmt.Sprintf("sweep/%s/w%d/s%d", kind, assoc, slices)
								if model != "poisson" {
									cfg.Name += "/" + model
								}
								// Seed labels: the tenant and defense coordinates join
								// only for non-default cells, so every pre-axis artifact
								// keeps its exact numbers (a poisson/undefended cell's
								// coordinates are the same labels as before the axes
								// existed).
								labels := []any{ce.ID, kind.String(), assoc, slices, rate}
								if model != "poisson" {
									labels = append(labels, "tenant:"+model)
								}
								if def.spec != nil {
									cfg = cfg.WithDefense(*def.spec)
									cfg.Name += "/" + def.name
									labels = append(labels, "defense:"+def.name)
								}
								out = append(out, Cell{
									Exp:         ce,
									Policy:      kind,
									PolicyName:  kind.String(),
									SFAssoc:     assoc,
									Slices:      slices,
									NoiseRate:   rate,
									TenantModel: model,
									DefenseName: def.name,
									Config:      cfg,
									Seed:        cellSeed(s.Seed, labels...),
									Key:         cellKey(labels),
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// cellSeed derives a cell's base seed from its coordinates alone (via
// the engine's labelled-seed scheme), so a cell's trials are invariant
// under changes to the rest of the grid.
func cellSeed(seed uint64, labels ...any) uint64 {
	strs := make([]string, len(labels))
	for i, l := range labels {
		strs[i] = fmt.Sprint(l)
	}
	return experiments.SubSeed(seed, strs...)
}

// cellKey renders the same coordinate labels that seed a cell into its
// canonical checkpoint key. Keeping key and seed derived from one label
// slice means a checkpoint record can never be matched to a cell whose
// seed stream differs. "|" never occurs in experiment ids, policy
// names, canonical float prints, or tenant/defense spec strings.
func cellKey(labels []any) string {
	strs := make([]string, len(labels))
	for i, l := range labels {
		strs[i] = fmt.Sprint(l)
	}
	return strings.Join(strs, "|")
}

// Run executes the sweep: the whole grid runs through RunCells as one
// flattened engine call (one panicking cell fails the sweep cleanly),
// then each cell's samples aggregate into a CellResult with deltas
// against its experiment's baseline cell. workers <= 0 selects
// GOMAXPROCS; the Result is identical for every worker count.
// Cancelling ctx stops the grid between trials and returns the
// context's error; Run itself persists nothing (the resumable path is
// internal/campaign.Run, which produces the identical Result).
func Run(ctx context.Context, spec Spec, workers int) (*Result, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cls := Expand(spec)
	all := make([]int, len(cls))
	for ci := range all {
		all[ci] = ci
	}
	samples, err := RunCells(ctx, cls, all, spec.Trials, workers, nil, nil)
	if err != nil {
		return nil, err
	}
	return Aggregate(spec, cls, samples), nil
}

// RunCells is the one grid executor: it runs n trials of each cell
// cls[ci], ci in which, as a single experiments.RunTrials call and
// returns the samples cell after cell in which order. Trials are
// scheduled individually, so W workers share even a one-cell grid, and
// each worker reuses its host across the consecutive trials of a cell.
//
// Trial i of a cell runs on xrand.Stream(cell.Seed, i) and, on a traced
// run, on the track (PID = cell index, TID = i), so a cell's samples
// and spans do not depend on which other cells share the call. A
// panicking trial fails the run with an error naming its cell. Each
// trial runs under the pprof labels experiment=<id> and policy=<name>,
// so a CPU profile splits by cell type (go tool pprof -tagfocus).
//
// done, when non-nil, is called once per completed cell with the cell's
// index in cls, its samples in trial order and the wall time its first
// trial started. It runs on the worker that finished the cell's last
// trial, inside that trial, while other workers carry on, so calls may
// overlap. An error from done cancels the run between trials (as the
// context's cause) and is returned.
func RunCells(ctx context.Context, cls []Cell, which []int, n, workers int, sink *obs.Sink,
	done func(ci int, ss []experiments.Sample, start time.Time) error) ([]experiments.Sample, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var tracer *obs.Tracer
	if sink != nil {
		tracer = sink.Tracer
	}
	samples := make([]experiments.Sample, len(which)*n)
	// left[k] counts cell k's unfinished trials; the worker that takes
	// it to zero owns the cell's hook. The atomic decrement orders every
	// other trial's sample write before the hook reads the cell.
	left := make([]atomic.Int32, len(which))
	starts := make([]time.Time, len(which))
	for k := range left {
		left[k].Store(int32(n))
	}
	// The engine's own seed stream is unused: every trial re-roots on
	// its cell's stream below.
	_, err := experiments.RunTrials(ctx, len(which)*n, workers, 0, sink, func(t *experiments.Trial) experiments.Sample {
		k, i := t.Index/n, t.Index%n
		ci := which[k]
		c := &cls[ci]
		if done != nil && i == 0 {
			starts[k] = time.Now()
		}
		// The trial's seed comes from the cell's own stream, not the flat
		// grid index, so cells are stable across grid reshapes.
		t2 := t.WithSeed(xrand.Stream(c.Seed, uint64(i)))
		if tracer != nil {
			// Re-root the trial's track on its grid cell (the engine's
			// default track is the flat index, meaningless in a grid).
			t2.Trace = &obs.TrialTrace{Tracer: tracer, PID: ci, TID: i}
		}
		var s experiments.Sample
		pprof.Do(ctx, pprof.Labels("experiment", c.Exp.ID, "policy", c.PolicyName), func(labels context.Context) {
			t2.Phases = obs.NewPhases(labels, t2.Trace)
			s = c.Exp.Run(t2, c.Config)
		})
		samples[t.Index] = s
		if done != nil && left[k].Add(-1) == 0 {
			if err := done(ci, samples[k*n:(k+1)*n], starts[k]); err != nil {
				cancel(err)
			}
		}
		return s
	})
	if err != nil {
		// Name the failing grid cell, not just the flat trial index: the
		// coordinates are what the operator needs to reproduce one cell.
		if tp, ok := err.(interface{ TrialIndex() int }); ok {
			if k := tp.TrialIndex() / n; k >= 0 && k < len(which) {
				return nil, fmt.Errorf("sweep: cell %s: %w", cls[which[k]].Coords(), err)
			}
		}
		return nil, err
	}
	return samples, nil
}

// Coords renders the cell's grid coordinates the way sweep errors and
// campaign progress lines name a cell for an operator.
func (c *Cell) Coords() string {
	return fmt.Sprintf("%s policy=%s sf_assoc=%d slices=%d noise=%g tenant=%s defense=%s",
		c.Exp.ID, c.PolicyName, c.SFAssoc, c.Slices, c.NoiseRate, c.TenantModel, c.DefenseName)
}

// Aggregate folds per-trial samples into the sweep artifact: cell ci's
// trials are samples[ci*n : (ci+1)*n] in trial order (n = spec.Trials).
// It is pure — given equal samples it produces an equal Result — which
// is the property that makes a resumed campaign's artifact
// byte-identical to an uninterrupted run's: resume only has to
// reproduce the per-cell sample slices.
func Aggregate(spec Spec, cls []Cell, samples []experiments.Sample) *Result {
	n := spec.Trials
	res := &Result{Spec: spec}
	baseline := map[string]CellResult{} // experiment id -> baseline cell
	for ci, c := range cls {
		cs := samples[ci*n : (ci+1)*n]
		var ok []float64
		succ := 0
		for _, s := range cs {
			if s.OK {
				succ++
				ok = append(ok, s.Value)
			}
		}
		sum := stats.Summarize(ok)
		cr := CellResult{
			Experiment:  c.Exp.ID,
			Policy:      c.PolicyName,
			SFAssoc:     c.SFAssoc,
			Slices:      c.Slices,
			NoiseRate:   c.NoiseRate,
			TenantModel: c.TenantModel,
			Defense:     c.DefenseName,
			Unit:        c.Exp.Unit,
			Trials:      n,
			SuccessRate: float64(succ) / float64(n),
			Mean:        sum.Mean,
			Stddev:      sum.Stddev,
			Median:      sum.Median,
			P95:         stats.Percentile(ok, 95),
		}
		if base, have := baseline[c.Exp.ID]; !have {
			// Cells expand with the first value of every axis first, so the
			// first cell of an experiment is its baseline.
			cr.Baseline = true
			baseline[c.Exp.ID] = cr
		} else {
			ds := cr.SuccessRate - base.SuccessRate
			cr.DeltaSuccess = &ds
			if base.Mean != 0 {
				dm := (cr.Mean - base.Mean) / base.Mean
				cr.DeltaMean = &dm
			}
		}
		res.Cells = append(res.Cells, cr)
	}
	return res
}

// WriteJSON renders the artifact as indented JSON. Encoding is fully
// deterministic: struct-ordered keys, shortest-form floats.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// csvHeader is the CSV artifact's column set.
var csvHeader = []string{
	"experiment", "policy", "sf_assoc", "slices", "noise_rate", "tenant_model", "defense",
	"unit", "trials", "success_rate", "mean", "stddev", "median", "p95",
	"baseline", "delta_success", "delta_mean",
}

// WriteCSV renders the artifact as CSV with one row per cell; delta
// columns are empty on baseline cells.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	opt := func(v *float64) string {
		if v == nil {
			return ""
		}
		return f(*v)
	}
	for _, c := range r.Cells {
		row := []string{
			c.Experiment, c.Policy, strconv.Itoa(c.SFAssoc), strconv.Itoa(c.Slices), f(c.NoiseRate), c.TenantModel, c.Defense,
			c.Unit, strconv.Itoa(c.Trials), f(c.SuccessRate), f(c.Mean), f(c.Stddev), f(c.Median), f(c.P95),
			strconv.FormatBool(c.Baseline), opt(c.DeltaSuccess), opt(c.DeltaMean),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
