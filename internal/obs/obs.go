// Package obs is the deterministic observability core: atomic
// counters, gauges and fixed-bucket histograms with labeled series
// (Registry), and simulated-time span tracing in Chrome trace_event
// JSON (Tracer). It exists to make "the run is slow/stuck" an
// attributed measurement — per-phase cycle budgets, per-cell duration
// histograms, daemon telemetry — without perturbing a single
// committed artifact byte.
//
// Two rules keep instrumentation outside the determinism contract
// (clause 9, observability identity):
//
//  1. Two clock domains, strictly separated. Simulated cycles
//     (clock.Cycles) are deterministic and may appear in exported
//     reports and trace timestamps; wall time (time.Time) is host-side
//     diagnostics only and never leaves stderr, /metrics, or a span's
//     args. A trace's ts/dur axis is therefore byte-reproducible.
//  2. Zero cost when disabled. Every method on every type in this
//     package is nil-receiver safe: a nil *Registry hands out nil
//     metrics, a nil *Counter's Add is a no-op, a nil *TrialTrace
//     emits nothing. Instrumented code paths hold plain pointers and
//     call through unconditionally — no rng stream is consumed, no
//     simulated clock advanced, no branch taken on behalf of
//     observability — so enabling or disabling any metric or trace
//     cannot change committed bytes (pinned by the byte-identity test
//     matrix and the benchguard gate).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; a nil Counter is a no-op (the disabled path).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on a nil receiver).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric. The zero value is ready to use; a
// nil Gauge is a no-op (the disabled path).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d (no-op on a nil receiver).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric: observations land
// in the first bucket whose upper bound is >= the value, with an
// implicit +Inf overflow bucket. Buckets are fixed at registration —
// no rebinning, no allocation on the observe path — so Observe is
// atomics-only and safe for concurrent use. A nil Histogram is a
// no-op (the disabled path).
type Histogram struct {
	uppers  []float64      // ascending upper bounds; +Inf implicit
	counts  []atomic.Int64 // len(uppers)+1, last is overflow
	sumBits atomic.Uint64
	n       atomic.Int64
}

// Observe records one value (no-op on a nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.n.Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets is the default upper-bound set for wall-time
// duration histograms, in seconds: half a millisecond to a minute in
// roughly 1-2.5-5 steps. Wall durations are host-side diagnostics
// (clock-domain rule), so the exact bounds carry no determinism
// weight.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricKind tags a family's type for exposition and conflict checks.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name with its type, bucket layout (histograms)
// and labeled series.
type family struct {
	name    string
	kind    metricKind
	buckets []float64
	series  map[string]any // rendered label string -> *Counter/*Gauge/*Histogram
}

// Registry owns a process's metric families and hands out their
// series. Registration is idempotent — asking for the same
// (name, labels) returns the same metric — and safe for concurrent
// use; re-registering a name as a different type or bucket layout
// panics (a programming error, like a duplicate flag). A nil
// *Registry hands out nil metrics, which are no-ops: callers plumb
// one pointer and never branch on "is observability on".
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelString renders k/v pairs in sorted-key canonical form
// ({a="x",b="y"}), the identity of a series within its family.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(a, b int) bool { return kvs[a].k < kvs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns (creating on first use) the series for
// (name, labels), checking type and bucket consistency.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []string) any {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, buckets: buckets, series: make(map[string]any)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s redeclared as %s (was %s)", name, kind, f.kind))
	}
	if kind == kindHistogram && !equalBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %s redeclared with different buckets", name))
	}
	m, ok := f.series[ls]
	if !ok {
		switch kind {
		case kindCounter:
			m = &Counter{}
		case kindGauge:
			m = &Gauge{}
		case kindHistogram:
			m = &Histogram{uppers: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1)}
		}
		f.series[ls] = m
	}
	return m
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter series for (name, label pairs),
// creating it on first use. A nil registry returns a nil (no-op)
// counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, labels).(*Counter)
}

// Gauge returns the gauge series for (name, label pairs), creating it
// on first use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns the histogram series for (name, label pairs) with
// the given ascending upper bounds (nil selects DurationBuckets),
// creating it on first use. A nil registry returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	return r.lookup(name, kindHistogram, buckets, labels).(*Histogram)
}

// BucketCount is one histogram bucket in a snapshot: the cumulative
// count of observations <= Upper (+Inf for the overflow bucket).
type BucketCount struct {
	Upper float64
	Count int64
}

// Series is one metric series in a stable-ordered snapshot.
type Series struct {
	// Name and Labels identify the series; Labels is the canonical
	// sorted {k="v",...} rendering, empty when unlabeled.
	Name   string
	Labels string
	// Type is "counter", "gauge" or "histogram".
	Type string
	// Value carries a counter's count or a gauge's value.
	Value float64
	// Count, Sum and Buckets carry a histogram's state; Buckets are
	// cumulative in ascending Upper order, ending at +Inf.
	Count   int64
	Sum     float64
	Buckets []BucketCount
}

// Snapshot returns every series in stable order — families sorted by
// name, series by label string — so two snapshots of equal state
// render identically. A nil registry snapshots empty.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Series
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := Series{Name: n, Labels: k, Type: string(f.kind)}
			switch m := f.series[k].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *Histogram:
				s.Count = m.Count()
				s.Sum = m.Sum()
				cum := int64(0)
				for i, u := range m.uppers {
					cum += m.counts[i].Load()
					s.Buckets = append(s.Buckets, BucketCount{Upper: u, Count: cum})
				}
				cum += m.counts[len(m.uppers)].Load()
				s.Buckets = append(s.Buckets, BucketCount{Upper: math.Inf(1), Count: cum})
			}
			out = append(out, s)
		}
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), stable-ordered like Snapshot. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	last := ""
	for _, s := range snap {
		if s.Name != last {
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Type)
			last = s.Name
		}
		switch s.Type {
		case "histogram":
			for _, bc := range s.Buckets {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.Name, withLE(s.Labels, bc.Upper), bc.Count)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.Name, s.Labels, formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.Name, s.Labels, s.Count)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, s.Labels, formatFloat(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLE merges the le bucket label into a rendered label string.
func withLE(labels string, upper float64) string {
	le := `le="` + formatFloat(upper) + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

// formatFloat renders a float the shortest round-trip way, with
// Prometheus's +Inf spelling.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
