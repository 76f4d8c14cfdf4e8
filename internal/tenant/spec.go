package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/specstr"
)

// Spec declares one background tenant: a model family plus its
// parameters. The zero value of every model-specific field selects that
// model's documented default, so a Spec can stay sparse; Rate and
// LLCProb are shared by all models. Specs round-trip through JSON (the
// -tenants flag and sweep spec files) and through the compact spec
// string syntax of Parse/String.
type Spec struct {
	// Model names the family: poisson, burst, stream, hotset or churn.
	Model string `json:"model"`
	// Rate is the tenant's mean access rate in accesses/ms/set, averaged
	// over all sets and all time — the paper's §4.3 unit (11.5 measured
	// on Cloud Run, 0.29 on a quiescent local machine). Every model
	// normalises its parameters so that equal Rates exert equal mean
	// pressure, which keeps models comparable along a sweep axis.
	Rate float64 `json:"rate"`
	// LLCProb is the probability that one background access also
	// installs a line in the LLC set, in addition to its SF allocation
	// (tenant shared data / L2 victims). Both ParseList syntaxes (spec
	// string and JSON) default an ABSENT key to DefaultLLCProb while
	// keeping an explicit 0 ("never touches the LLC"); only direct
	// struct construction is fully literal.
	LLCProb float64 `json:"llc_prob"`

	// Burst parameters: the tenant alternates exponentially distributed
	// on (bursting) and off (idle) phases; while on, it is a Poisson
	// source at Rate/OnFrac, so the long-run mean stays Rate.
	OnFrac float64 `json:"on_frac,omitempty"` // fraction of time bursting (default 0.1)
	OnMs   float64 `json:"on_ms,omitempty"`   // mean burst duration in ms (default 2)

	// Stream parameter: each sweep visit performs Width back-to-back
	// accesses to the set before moving to the next index (default 4).
	Width int `json:"width,omitempty"`

	// Hotset parameter: the fraction of sets the tenant's working set
	// collides with (default 0.25); hot sets receive Rate/HotFrac, cold
	// sets nothing.
	HotFrac float64 `json:"hot_frac,omitempty"`

	// Churn parameters: serverless instances arrive as a Poisson process
	// (ArrivalsPerMs, default 0.05), live an exponential LifeMs (default
	// 5) and each touches a contiguous FootprintFrac of all sets
	// (default 0.5) at a per-set rate normalised so the long-run mean
	// over all sets stays Rate.
	ArrivalsPerMs float64 `json:"arrivals_per_ms,omitempty"`
	LifeMs        float64 `json:"life_ms,omitempty"`
	FootprintFrac float64 `json:"footprint_frac,omitempty"`
}

// Model parameter defaults (see the Spec field comments).
const (
	DefaultLLCProb       = 0.5
	DefaultOnFrac        = 0.1
	DefaultOnMs          = 2.0
	DefaultWidth         = 4
	DefaultHotFrac       = 0.25
	DefaultArrivalsPerMs = 0.05
	DefaultLifeMs        = 5.0
	DefaultFootprintFrac = 0.5
)

// WithDefaults returns a copy with every zero model-specific parameter
// replaced by its default. Rate and LLCProb are never defaulted here:
// both are meaningful at zero.
func (s Spec) WithDefaults() Spec {
	if s.OnFrac == 0 {
		s.OnFrac = DefaultOnFrac
	}
	if s.OnMs == 0 {
		s.OnMs = DefaultOnMs
	}
	if s.Width == 0 {
		s.Width = DefaultWidth
	}
	if s.HotFrac == 0 {
		s.HotFrac = DefaultHotFrac
	}
	if s.ArrivalsPerMs == 0 {
		s.ArrivalsPerMs = DefaultArrivalsPerMs
	}
	if s.LifeMs == 0 {
		s.LifeMs = DefaultLifeMs
	}
	if s.FootprintFrac == 0 {
		s.FootprintFrac = DefaultFootprintFrac
	}
	return s
}

// Validate rejects malformed specs: an unknown model, a negative or
// non-finite rate or duration, any probability/fraction outside its
// range (NaN included: a NaN mean would never end a Poisson draw), or a
// model parameter set on a model it does not apply to (a raw Spec's
// zero means "default", so an inapplicable non-zero value can only be a
// mistake). Range defaults are applied first, so a sparse Spec
// validates exactly as it will build.
func (s Spec) Validate() error {
	if _, ok := registry[s.Model]; !ok {
		return fmt.Errorf("tenant: unknown model %q (known: %v)", s.Model, Models())
	}
	if key := s.inapplicable(); key != "" {
		return fmt.Errorf("tenant: parameter %q does not apply to model %q", key, s.Model)
	}
	d := s.WithDefaults()
	switch {
	case !nonNegative(d.Rate):
		return fmt.Errorf("tenant: %s: rate %g must be finite and non-negative", d.Model, d.Rate)
	case !inUnit(d.LLCProb, true):
		return fmt.Errorf("tenant: %s: llc_prob %g outside [0, 1]", d.Model, d.LLCProb)
	case !inUnit(d.OnFrac, false):
		return fmt.Errorf("tenant: %s: on_frac %g outside (0, 1]", d.Model, d.OnFrac)
	case !positive(d.OnMs):
		return fmt.Errorf("tenant: %s: on_ms %g must be finite and positive", d.Model, d.OnMs)
	case d.Width < 1:
		return fmt.Errorf("tenant: %s: width %d below 1", d.Model, d.Width)
	case !inUnit(d.HotFrac, false):
		return fmt.Errorf("tenant: %s: hot_frac %g outside (0, 1]", d.Model, d.HotFrac)
	case !positive(d.ArrivalsPerMs):
		return fmt.Errorf("tenant: %s: arrivals_per_ms %g must be finite and positive", d.Model, d.ArrivalsPerMs)
	case !positive(d.LifeMs):
		return fmt.Errorf("tenant: %s: life_ms %g must be finite and positive", d.Model, d.LifeMs)
	case !inUnit(d.FootprintFrac, false):
		return fmt.Errorf("tenant: %s: footprint_frac %g outside (0, 1]", d.Model, d.FootprintFrac)
	}
	return nil
}

// The range predicates of Validate and Parse. Each is false for NaN.

// nonNegative reports x in [0, MaxFloat64].
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// positive reports x in (0, MaxFloat64].
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// inUnit reports x in [0, 1] when zero is allowed, else in (0, 1].
func inUnit(x float64, zero bool) bool { return (x > 0 || zero && x == 0) && x <= 1 }

// Build validates the spec and constructs its model. The model still
// needs a Reset(seed) before use; hosts perform it when they build or
// recycle their tenant state.
func (s Spec) Build() (Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return registry[s.Model].build(s.WithDefaults())
}

// String renders the spec in the compact form Parse accepts, listing
// only the parameters relevant to the model. Defaults are applied
// first, so a sparse spec renders its effective values and every
// String output round-trips through Parse.
func (s Spec) String() string {
	s = s.WithDefaults()
	var b strings.Builder
	b.WriteString(s.Model)
	kv := func(k string, v float64) { fmt.Fprintf(&b, ",%s=%s", k, strconv.FormatFloat(v, 'g', -1, 64)) }
	fmt.Fprintf(&b, ":rate=%s", strconv.FormatFloat(s.Rate, 'g', -1, 64))
	kv("llc_prob", s.LLCProb)
	switch s.Model {
	case "burst":
		kv("on_frac", s.OnFrac)
		kv("on_ms", s.OnMs)
	case "stream":
		fmt.Fprintf(&b, ",width=%d", s.Width)
	case "hotset":
		kv("hot_frac", s.HotFrac)
	case "churn":
		kv("arrivals_per_ms", s.ArrivalsPerMs)
		kv("life_ms", s.LifeMs)
		kv("footprint_frac", s.FootprintFrac)
	}
	return b.String()
}

// specKeys maps each model to the parameter keys it may set, beyond
// the shared rate and llc_prob. Both input syntaxes enforce it: the
// spec-string parser per key, Validate (via inapplicable) on whole
// specs, including JSON ones.
var specKeys = map[string]map[string]bool{
	"poisson": {},
	"burst":   {"on_frac": true, "on_ms": true},
	"stream":  {"width": true},
	"hotset":  {"hot_frac": true},
	"churn":   {"arrivals_per_ms": true, "life_ms": true, "footprint_frac": true},
}

// inapplicable returns the first non-zero model parameter that does
// not belong to the spec's model, or "" when the spec is clean. It
// must run on a RAW spec (before WithDefaults fills every field).
func (s Spec) inapplicable() string {
	keys := specKeys[s.Model]
	for _, p := range []struct {
		key string
		set bool
	}{
		{"on_frac", s.OnFrac != 0},
		{"on_ms", s.OnMs != 0},
		{"width", s.Width != 0},
		{"hot_frac", s.HotFrac != 0},
		{"arrivals_per_ms", s.ArrivalsPerMs != 0},
		{"life_ms", s.LifeMs != 0},
		{"footprint_frac", s.FootprintFrac != 0},
	} {
		if p.set && !keys[p.key] {
			return p.key
		}
	}
	return ""
}

// Parse reads one compact spec string: "model" alone, or
// "model:key=value,key=value" — e.g. "burst:rate=34.5,on_frac=0.1".
// Omitted keys default: rate to the measured Cloud Run rate (11.5),
// llc_prob to DefaultLLCProb, model parameters per WithDefaults. Keys
// that do not belong to the model are rejected, so a typo cannot
// silently configure nothing. The surface syntax (and error wording)
// is the shared internal/specstr grammar.
func Parse(s string) (Spec, error) {
	name, rest, hasParams := specstr.Cut(s)
	spec := Spec{Model: name, Rate: 11.5, LLCProb: DefaultLLCProb}
	if _, ok := registry[name]; !ok {
		return Spec{}, fmt.Errorf("tenant: unknown model %q in spec %q (known: %v)", name, s, Models())
	}
	if hasParams {
		// Range-check explicit values at parse time: a zero in the struct
		// means "default", so an explicit bad zero (hot_frac=0, width=0.5)
		// would otherwise be silently replaced instead of rejected.
		err := specstr.Params("tenant", s, name, rest, func(key string, f float64) (known, bad bool) {
			if key != "rate" && key != "llc_prob" && !specKeys[name][key] {
				return false, false
			}
			switch key {
			case "rate":
				spec.Rate, bad = f, !nonNegative(f)
			case "llc_prob":
				spec.LLCProb, bad = f, !inUnit(f, true)
			case "on_frac":
				spec.OnFrac, bad = f, !inUnit(f, false)
			case "on_ms":
				spec.OnMs, bad = f, !positive(f)
			case "width":
				spec.Width, bad = int(f), !(f >= 1 && f <= math.MaxInt32 && f == math.Trunc(f))
			case "hot_frac":
				spec.HotFrac, bad = f, !inUnit(f, false)
			case "arrivals_per_ms":
				spec.ArrivalsPerMs, bad = f, !positive(f)
			case "life_ms":
				spec.LifeMs, bad = f, !positive(f)
			case "footprint_frac":
				spec.FootprintFrac, bad = f, !inUnit(f, false)
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

// ParseList reads a -tenants flag value: either a JSON array of Spec
// objects (first non-space byte '['), a single JSON object ('{'), or
// one or more compact spec strings separated by ';'. Both syntaxes
// apply the same defaults to omitted fields (rate 11.5, llc_prob 0.5):
// JSON objects are unmarshalled over a pre-filled spec, so an explicit
// "llc_prob": 0 still means zero while an absent key means 0.5.
func ParseList(s string) ([]Spec, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return nil, nil
	}
	if t[0] == '[' || t[0] == '{' {
		var raws []json.RawMessage
		if t[0] == '{' {
			raws = []json.RawMessage{json.RawMessage(t)}
		} else if err := json.Unmarshal([]byte(t), &raws); err != nil {
			return nil, fmt.Errorf("tenant: bad JSON spec list: %w", err)
		}
		specs := make([]Spec, len(raws))
		for i, raw := range raws {
			specs[i] = Spec{Rate: 11.5, LLCProb: DefaultLLCProb}
			// Unknown keys are typos, exactly as in the spec-string form;
			// known-but-inapplicable keys are caught by Validate.
			dec := json.NewDecoder(strings.NewReader(string(raw)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&specs[i]); err != nil {
				return nil, fmt.Errorf("tenant: bad JSON spec: %w", err)
			}
			// The single-object form hands over the whole string: only
			// whitespace may follow the object (sweep.DecodeSpec's rule;
			// dec.More would pass a stray ']' or '}').
			var extra json.RawMessage
			if err := dec.Decode(&extra); err != io.EOF {
				return nil, errors.New("tenant: bad JSON spec: trailing data after the object")
			}
			if err := specs[i].Validate(); err != nil {
				return nil, err
			}
		}
		return specs, nil
	}
	var specs []Spec
	for _, part := range strings.Split(t, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		sp, err := Parse(part)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}
