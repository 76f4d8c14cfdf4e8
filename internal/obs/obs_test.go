package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety pins the disabled path: every operation on nil
// receivers is a no-op, never a panic (clause 9 relies on
// instrumented code calling through unconditionally).
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", sb.String(), err)
	}
	var tr *Tracer
	tr.Emit(Span{Name: "x"})
	tr.SetProcessName(0, "p")
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must hold nothing")
	}
	var tt *TrialTrace
	tt.Span("x", "phase", 0, 1, 0, true)
	if tt.Enabled() {
		t.Fatal("nil TrialTrace reports enabled")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "state", "done")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if again := r.Counter("jobs_total", "state", "done"); again != c {
		t.Fatal("re-registration must return the same series")
	}
	other := r.Counter("jobs_total", "state", "failed")
	if other == c {
		t.Fatal("distinct labels must be distinct series")
	}
	g := r.Gauge("depth")
	g.Set(4)
	g.Add(-1.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", g.Value())
	}
}

func TestLabelCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "b", "2", "a", "1")
	b := r.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not change series identity")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Labels != `{a="1",b="2"}` {
		t.Fatalf("labels rendered %q, want sorted", snap[0].Labels)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("sum = %g, want 111.5", h.Sum())
	}
	snap := r.Snapshot()
	want := []BucketCount{{1, 2}, {5, 3}, {10, 4}, {math.Inf(1), 5}}
	if len(snap) != 1 || len(snap[0].Buckets) != len(want) {
		t.Fatalf("snapshot = %+v", snap)
	}
	for i, b := range snap[0].Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge must panic")
		}
	}()
	r.Gauge("m")
}

// TestPrometheusFormat pins the exposition text: stable order, TYPE
// lines, histogram expansion with merged le labels.
func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "k", "v").Add(2)
	r.Gauge("a_depth").Set(1.5)
	h := r.Histogram("c_seconds", []float64{0.5, 1}, "op", "x")
	h.Observe(0.25)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE a_depth gauge
a_depth 1.5
# TYPE b_total counter
b_total{k="v"} 2
# TYPE c_seconds histogram
c_seconds_bucket{op="x",le="0.5"} 1
c_seconds_bucket{op="x",le="1"} 1
c_seconds_bucket{op="x",le="+Inf"} 2
c_seconds_sum{op="x"} 2.25
c_seconds_count{op="x"} 2
`
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestConcurrentUse drives one registry from many goroutines under
// -race: registration and observation must both be safe.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{10, 100}).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("h", []float64{10, 100}).Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}
