// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds the simulated hosts it needs,
// executes the paper's protocol (scaled down by default, paper-scale with
// Options.Full), and emits a report with the measured rows next to the
// paper's published values so the reproduction's *shape* can be checked:
// orderings, ratios and crossovers rather than absolute numbers.
//
// Every runner executes its trials through the parallel trial engine in
// engine.go: RunTrials fans independent trials out over a worker pool
// (Options.Workers, default GOMAXPROCS) and recycles simulated hosts via
// hierarchy.Host.Reset so steady-state trials allocate near-zero.
//
// Determinism contract: for a fixed Options.Seed, a report's Rows are
// byte-identical for every worker count. Each trial derives all of its
// randomness from a per-trial seed drawn from a splitmix64 stream indexed
// by trial number (xrand.Stream), touches no simulated state outside its
// own host, and a pooled host reset to a seed replays exactly the
// behaviour of a freshly built host with that seed. Wall-clock timing is
// therefore reported out-of-band (by cmd/llcrepro, on stderr), never in
// the Report itself.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/defense"
	"repro/internal/hierarchy"
	"repro/internal/tenant"
)

// Options configures a run.
type Options struct {
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Full selects paper-scale geometry (28/22-slice Skylake-SP hosts,
	// sect571r1 victims) instead of the scaled default. Full runs take
	// minutes to hours.
	Full bool
	// Trials overrides the default trial count (0 keeps the default).
	Trials int
	// Workers is the number of parallel trial workers (0 selects
	// GOMAXPROCS, 1 forces sequential execution). Reports are identical
	// for every value; only wall-clock time changes.
	Workers int
	// Tenants, when non-empty, replaces every runner's environment noise
	// (the quiescent-local and Cloud Run presets) with the given
	// structured background tenants (cmd/llcrepro -tenants). Runners
	// that sweep or rescale the noise rate (abl-noise, construction
	// equivalent-noise scaling) still do: with tenants present,
	// Config.WithNoiseRate rescales the tenants' total mean rate while
	// preserving the mix, so intensity axes stay meaningful under an
	// override.
	Tenants []tenant.Spec
	// Defense, when non-nil, deploys the given LLC countermeasure
	// (internal/defense) on every runner's hosts (cmd/llcrepro
	// -defense), so each per-step table and figure can be regenerated
	// against a defended hierarchy.
	Defense *defense.Spec
}

// Report is a rendered experiment result.
type Report struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Paper lines quote what the paper reports, for side-by-side reading.
	Paper []string `json:"paper,omitempty"`
	Notes []string `json:"notes,omitempty"`
}

// FprintJSON renders the report as indented JSON, the machine-readable
// sibling of Fprint.
func (r *Report) FprintJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Paper) > 0 {
		fmt.Fprintln(w, "paper:")
		for _, p := range r.Paper {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner executes one experiment.
type Runner func(Options) *Report

// registry maps experiment ids to runners.
var registry = map[string]Runner{}

// descriptions gives the -list output.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// List returns all experiment ids with descriptions, sorted.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%-10s %s", id, descriptions[id])
	}
	return out
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Host configurations for the two environments of the paper.

// localConfig returns the quiescent-local host: the 22-slice Xeon Gold
// 6152 at paper scale, a 4-slice scaled host otherwise.
func localConfig(o Options) hierarchy.Config {
	if o.Full {
		return o.tenants(hierarchy.SkylakeSP(22).WithQuiescentNoise())
	}
	return o.tenants(hierarchy.Scaled(4).WithQuiescentNoise())
}

// cloudConfig returns the Cloud Run host: the 28-slice Xeon Platinum
// 8173M at paper scale, a 4-slice scaled host with the measured Cloud
// Run noise rate otherwise.
func cloudConfig(o Options) hierarchy.Config {
	if o.Full {
		return o.tenants(hierarchy.SkylakeSP(28).WithCloudNoise())
	}
	return o.tenants(hierarchy.Scaled(4).WithCloudNoise())
}

// tenants applies the run's environment overrides — tenant workloads
// and the LLC defense — to a runner config. Override tenants replace
// the preset's poisson tenant, and later WithNoiseRate calls rescale
// their total rate.
func (o Options) tenants(cfg hierarchy.Config) hierarchy.Config {
	if len(o.Tenants) > 0 {
		cfg = cfg.WithTenants(o.Tenants...)
	}
	if o.Defense != nil {
		cfg = cfg.WithDefense(*o.Defense)
	}
	return cfg
}

func trials(o Options, def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// ConstructionNoiseScale returns the factor by which the scaled host's
// noise rate must grow so that eviction-set construction sees the same
// noise-hits-per-TestEviction as the paper's full-scale hosts. A scaled
// candidate pool is ~40x smaller than the 28-slice Skylake-SP pool, so
// every test window is ~40x shorter; without rescaling, Cloud Run noise
// would be invisible to Table 3/4's protocol. When the protocol uses L2
// candidate filtering the working pools shrink by U_L2 — 16x at full
// scale but only 4x on the scaled host — so the equivalent rate for
// filtered experiments is correspondingly lower. Monitoring experiments
// (Tables 5-6, Figures 6-9) keep the true rates: their timescale is set
// by the victim's iteration length, which does not scale.
func ConstructionNoiseScale(cfg hierarchy.Config, filtered bool) float64 {
	full := hierarchy.SkylakeSP(28)
	fullPool := float64(3 * full.LLCUncertainty() * full.SFWays)
	pool := float64(3 * cfg.LLCUncertainty() * cfg.SFWays)
	if filtered {
		fullPool /= float64(full.L2Uncertainty())
		pool /= float64(cfg.L2Uncertainty())
	}
	if pool <= 0 {
		return 1
	}
	return fullPool / pool
}

// localConstructionConfig returns the quiescent host for construction
// experiments, with equivalent-noise scaling when not at full scale.
func localConstructionConfig(o Options, filtered bool) hierarchy.Config {
	cfg := localConfig(o)
	if !o.Full {
		cfg = cfg.WithNoiseRate(0.29 * ConstructionNoiseScale(cfg, filtered))
	}
	return cfg
}

// cloudConstructionConfig is the Cloud Run analog.
func cloudConstructionConfig(o Options, filtered bool) hierarchy.Config {
	cfg := cloudConfig(o)
	if !o.Full {
		cfg = cfg.WithNoiseRate(11.5 * ConstructionNoiseScale(cfg, filtered))
	}
	return cfg
}

// fmtDur renders a duration in cycles with an adaptive unit.
func fmtDur(cycles float64) string {
	switch {
	case cycles < 2e3:
		return fmt.Sprintf("%.0f cyc", cycles)
	case cycles < 2e7:
		return fmt.Sprintf("%.2f ms", cycles/2e6)
	default:
		return fmt.Sprintf("%.2f s", cycles/2e9)
	}
}

// Formatting helpers shared by the runners.

func pct(v float64) string      { return fmt.Sprintf("%.1f%%", 100*v) }
func ms(cycles float64) string  { return fmt.Sprintf("%.2f ms", cycles/2e6) }
func sec(cycles float64) string { return fmt.Sprintf("%.2f s", cycles/2e9) }
func us(cycles float64) string  { return fmt.Sprintf("%.1f µs", cycles/2e3) }
