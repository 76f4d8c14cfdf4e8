// Package tenant models the background co-tenants of a simulated
// serverless host as structured, composable workload processes.
//
// The paper measures interference from co-residents as a single per-set
// Poisson rate (§4.3: 11.5 accesses/ms/set on Cloud Run, 0.29 on a
// quiescent local machine). Real multi-tenant interference is richer:
// phased and bursty (co-tenants alternate active and idle periods),
// spatially structured (sequential scans sweep set indices instead of
// hitting sets i.i.d.; a neighbour's working set collides with some
// victim sets and not others), and churning (serverless cold starts
// arrive, touch a large transient footprint, and depart). Each of those
// regimes is a Model here, built from a declarative Spec and injected by
// internal/hierarchy into its lazy per-set synchronisation path. The
// paper's own measurement is the "poisson" model, and one poisson
// tenant at the quiescent rate is the default background of every
// shipped hierarchy configuration.
//
// # Determinism contract
//
// A model participates in the simulator's byte-level reproducibility:
//
//   - All schedule state (burst phase boundaries, churn arrivals, sweep
//     and hot-set placement) derives from the seed passed to Reset —
//     never from the host RNG — so building it lazily cannot perturb the
//     host's own random stream.
//   - Accesses draws per-window counts from the rng argument (the host's
//     stream): the draw order is fixed by the (deterministic) access
//     sequence of the simulation.
//   - Queries arrive with non-decreasing `now` (the host clock), but in
//     arbitrary per-set order; models must answer from schedule state
//     that depends only on (seed, set, window), not on query order.
//   - Reset must restore the exact post-construction state and stay
//     allocation-light, so pooled hosts can recycle models across trials
//     (the hierarchy.Host.Reset contract).
package tenant

import (
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/xrand"
)

// CyclesPerMs converts the paper's per-millisecond rates to the
// simulator's per-cycle rates at the 2 GHz host frequency (clock.GHz2).
const CyclesPerMs = 2_000_000.0

// Set identifies one LLC/SF set to a model, in flat coordinates: Slot is
// slice*setsPerSlice+index and Total is the host's system-wide set
// count. Spatial models (stream, hotset, churn) key their structure on
// Slot/Total; rate-only models ignore it.
type Set struct {
	Slot  int
	Total int
}

// Model is one background tenant's workload process. The host syncs a
// set lazily — on the first demand access after a quiet period — by
// asking every model how many background accesses it performed on that
// set during the elapsed window, then replaying them against the SF/LLC.
type Model interface {
	// Accesses returns the number of accesses this tenant performs to
	// set during the virtual-time window (last, now]. Count randomness
	// must come from rng (the host stream); schedule randomness must
	// come from the Reset seed (see the package determinism contract).
	Accesses(rng *xrand.Rand, set Set, last, now clock.Cycles) int
	// Reset re-derives all internal state from seed, as if the model had
	// just been built. It must be allocation-light: pooled hosts call it
	// once per recycled trial.
	Reset(seed uint64)
}

// Memoryless is implemented by models whose per-window access count is
// a single Poisson draw at a fixed per-cycle rate, independent of the
// set identity and of any schedule state. The hierarchy's sync loop uses
// it to devirtualize the common case: at host-build time it captures the
// rate and inlines the draw (rng.Poisson(window*rate)) instead of
// calling through the Model interface per window. The inlined expression
// must match Accesses exactly — same rng, same float arithmetic — so
// devirtualization cannot move a single drawn bit.
type Memoryless interface {
	Model
	// PerCycleRate returns the fixed per-cycle access rate.
	PerCycleRate() float64
}

// modelInfo is one registry entry.
type modelInfo struct {
	name  string
	desc  string
	build func(Spec) (Model, error)
}

var registry = map[string]modelInfo{}

// register adds a model family to the registry; called from the model
// files' init functions. Duplicate names are programming errors.
func register(name, desc string, build func(Spec) (Model, error)) {
	if _, dup := registry[name]; dup {
		panic("tenant: duplicate model " + name)
	}
	registry[name] = modelInfo{name: name, desc: desc, build: build}
}

// Models returns the sorted names of all registered model families.
func Models() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ModelList returns "name  description" lines for every model family,
// sorted by name (the -list output of the CLIs).
func ModelList() []string {
	names := Models()
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("%-10s %s", name, registry[name].desc)
	}
	return out
}

// frac01 maps a 64-bit hash to [0, 1) with the same mantissa convention
// as xrand.Rand.Float64, for seed-derived placement decisions.
func frac01(v uint64) float64 { return float64(v>>11) / (1 << 53) }
