package defense

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/specstr"
)

// Spec declares one LLC countermeasure: a model family plus its
// parameters. The zero value of every model-specific field selects that
// model's documented default, so a Spec can stay sparse. Specs
// round-trip through JSON (scenario reports, sweep spec files) and
// through the compact spec-string syntax of Parse/String (the shared
// internal/specstr grammar).
type Spec struct {
	// Model names the family: partition, randomize, scatter or quiesce.
	Model string `json:"model"`

	// Ways is the partition model's attacker-region size: the number of
	// LLC/SF ways reserved for the attacker container's allocations;
	// the victim container and background tenants share the remaining
	// ways (default 4). It must leave at least one way on each side of
	// every partitioned structure — hierarchy.Config.Validate checks it
	// against the geometry.
	Ways int `json:"ways,omitempty"`

	// Period is the randomize model's rekey period in demand accesses:
	// after this many accesses the index-randomization key rotates,
	// remapping every set and orphaning resident lines, as a CEASER
	// epoch boundary does (default 100000).
	Period int `json:"period,omitempty"`

	// Quantum is the quiesce model's timer granularity in cycles: every
	// attacker-visible latency measurement is rounded up to a multiple
	// of it (default 512). Set it to 1 for a jitter-only quiesce.
	Quantum float64 `json:"quantum,omitempty"`
	// Jitter is the quiesce model's additional Gaussian measurement
	// noise, as a sigma in cycles, applied before quantization. Unlike
	// the other parameters its zero value is literal (no added noise),
	// so a sparse quiesce spec is purely quantizing.
	Jitter float64 `json:"jitter,omitempty"`
}

// Model parameter defaults (see the Spec field comments).
const (
	DefaultWays    = 4
	DefaultPeriod  = 100_000
	DefaultQuantum = 512.0
)

// WithDefaults returns a copy with every zero model-specific parameter
// replaced by its default. Jitter is never defaulted: zero (no added
// noise) is meaningful.
func (s Spec) WithDefaults() Spec {
	if s.Ways == 0 {
		s.Ways = DefaultWays
	}
	if s.Period == 0 {
		s.Period = DefaultPeriod
	}
	if s.Quantum == 0 {
		s.Quantum = DefaultQuantum
	}
	return s
}

// specKeys maps each model to the parameter keys it may set. Both input
// syntaxes enforce it: the spec-string parser per key, Validate (via
// inapplicable) on whole specs, including JSON ones.
var specKeys = map[string]map[string]bool{
	"partition": {"ways": true},
	"randomize": {"period": true},
	"scatter":   {},
	"quiesce":   {"quantum": true, "jitter": true},
}

// inapplicable returns the first non-zero model parameter that does not
// belong to the spec's model, or "" when the spec is clean. It must run
// on a RAW spec (before WithDefaults fills every field).
func (s Spec) inapplicable() string {
	keys := specKeys[s.Model]
	for _, p := range []struct {
		key string
		set bool
	}{
		{"ways", s.Ways != 0},
		{"period", s.Period != 0},
		{"quantum", s.Quantum != 0},
		{"jitter", s.Jitter != 0},
	} {
		if p.set && !keys[p.key] {
			return p.key
		}
	}
	return ""
}

// Validate rejects malformed specs: an unknown model, an out-of-range
// parameter, or a parameter set on a model it does not apply to (a raw
// Spec's zero means "default", so an inapplicable non-zero value can
// only be a mistake). Geometry cross-checks (partition ways against the
// host's associativities) live in hierarchy.Config.Validate, which
// knows the geometry.
func (s Spec) Validate() error {
	if _, ok := registry[s.Model]; !ok {
		return fmt.Errorf("defense: unknown model %q (known: %v)", s.Model, Models())
	}
	if key := s.inapplicable(); key != "" {
		return fmt.Errorf("defense: parameter %q does not apply to model %q", key, s.Model)
	}
	d := s.WithDefaults()
	switch {
	case d.Ways < 1:
		return fmt.Errorf("defense: %s: ways %d below 1", d.Model, d.Ways)
	case d.Period < 1:
		return fmt.Errorf("defense: %s: period %d below 1", d.Model, d.Period)
	case !positive(d.Quantum):
		return fmt.Errorf("defense: %s: quantum %g must be finite and positive", d.Model, d.Quantum)
	case !nonNegative(d.Jitter):
		return fmt.Errorf("defense: %s: jitter %g must be finite and non-negative", d.Model, d.Jitter)
	}
	return nil
}

// The range predicates of Validate and Parse. Each is false for NaN and
// for infinities: a NaN quantum or jitter would silently switch that
// step of quiesce off, and an infinite one turns every observed latency
// into NaN or ±Inf.

// positive reports x in (0, MaxFloat64].
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// nonNegative reports x in [0, MaxFloat64].
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// PartitionWays returns the attacker-region way count the spec's model
// would reserve (0 for non-partitioning models). hierarchy.Config uses
// it to size and validate the partitioned cache arrays without building
// the model.
func (s Spec) PartitionWays() int {
	if s.Model != "partition" {
		return 0
	}
	return s.WithDefaults().Ways
}

// Build validates the spec and constructs its model. The model still
// needs a Reset(seed) before use; hosts perform it when they build or
// recycle their defense state.
func (s Spec) Build() (Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return registry[s.Model].build(s.WithDefaults())
}

// String renders the spec in the compact form Parse accepts, listing
// only the parameters relevant to the model. Defaults are applied
// first, so a sparse spec renders its effective values and every String
// output round-trips through Parse. hierarchy.Config.Key embeds it, so
// equal-valued specs must render identically.
func (s Spec) String() string {
	s = s.WithDefaults()
	var b strings.Builder
	b.WriteString(s.Model)
	switch s.Model {
	case "partition":
		fmt.Fprintf(&b, ":ways=%d", s.Ways)
	case "randomize":
		fmt.Fprintf(&b, ":period=%d", s.Period)
	case "quiesce":
		fmt.Fprintf(&b, ":quantum=%s,jitter=%s",
			strconv.FormatFloat(s.Quantum, 'g', -1, 64),
			strconv.FormatFloat(s.Jitter, 'g', -1, 64))
	}
	return b.String()
}

// Parse reads one compact spec string: "model" alone, or
// "model:key=value,key=value" — e.g. "partition:ways=4" or
// "quiesce:quantum=256,jitter=20". Omitted keys take the model
// defaults; keys that do not belong to the model are rejected, so a
// typo cannot silently configure nothing.
func Parse(s string) (Spec, error) {
	name, rest, hasParams := specstr.Cut(s)
	spec := Spec{Model: name}
	if _, ok := registry[name]; !ok {
		return Spec{}, fmt.Errorf("defense: unknown model %q in spec %q (known: %v)", name, s, Models())
	}
	if hasParams {
		// Range-check explicit values at parse time: a zero in the struct
		// means "default", so an explicit bad zero (ways=0, quantum=0)
		// would otherwise be silently replaced instead of rejected.
		err := specstr.Params("defense", s, name, rest, func(key string, f float64) (known, bad bool) {
			if !specKeys[name][key] {
				return false, false
			}
			switch key {
			case "ways":
				spec.Ways, bad = int(f), f < 1 || f != math.Trunc(f)
			case "period":
				spec.Period, bad = int(f), f < 1 || f != math.Trunc(f)
			case "quantum":
				spec.Quantum, bad = f, !positive(f)
			case "jitter":
				spec.Jitter, bad = f, !nonNegative(f)
			}
			return true, bad
		})
		if err != nil {
			return Spec{}, err
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// ParseOpt reads an optional defense flag value: "" and "none" select
// no defense (a nil spec); anything else must be a valid Parse spec.
func ParseOpt(s string) (*Spec, error) {
	t := strings.TrimSpace(s)
	if t == "" || t == "none" {
		return nil, nil
	}
	sp, err := Parse(t)
	if err != nil {
		return nil, err
	}
	return &sp, nil
}
