package clock

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestAdvance(t *testing.T) {
	c := New(0, nil)
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("now = %d", c.Now())
	}
}

func TestReadWithoutJitterIsExact(t *testing.T) {
	c := New(0, nil)
	c.Advance(1234)
	if c.Read() != 1234 {
		t.Fatal("jitter-free read must be exact")
	}
}

func TestReadJitterBounded(t *testing.T) {
	c := New(3, xrand.New(1))
	c.Advance(10000)
	sum, n := 0.0, 2000
	for i := 0; i < n; i++ {
		sum += float64(c.Read())
	}
	mean := sum / float64(n)
	if math.Abs(mean-10000) > 1 {
		t.Fatalf("jittered read mean %.2f, want ~10000", mean)
	}
}

func TestUnitConversions(t *testing.T) {
	if v := Cycles(2_000_000_000).Seconds(); math.Abs(v-1) > 1e-12 {
		t.Fatalf("seconds = %v", v)
	}
	if v := Cycles(2_000).Micros(); math.Abs(v-1) > 1e-12 {
		t.Fatalf("micros = %v", v)
	}
	if v := Cycles(2_000_000).Millis(); math.Abs(v-1) > 1e-12 {
		t.Fatalf("millis = %v", v)
	}
	if FromMicros(1) != 2000 {
		t.Fatal("FromMicros")
	}
	if FromMillis(1) != 2_000_000 {
		t.Fatal("FromMillis")
	}
}
