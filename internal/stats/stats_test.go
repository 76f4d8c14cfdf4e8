package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStddevMedian(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5) {
		t.Fatalf("mean = %v", m)
	}
	if s := Stddev(xs); math.Abs(s-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s)
	}
	if md := Median(xs); !almost(md, 4.5) {
		t.Fatalf("median = %v", md)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Stddev(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty summaries must be zero")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max must be infinities")
	}
}

func TestPercentileOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p25 := Percentile(xs, 25)
		p50 := Percentile(xs, 50)
		p75 := Percentile(xs, 75)
		return p25 <= p50 && p50 <= p75 &&
			Percentile(xs, 0) == Min(xs) && Percentile(xs, 100) == Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Rate() != 0 {
		t.Fatal("empty counter rate must be 0")
	}
	c.Record(true)
	c.Record(true)
	c.Record(false)
	if !almost(c.Rate(), 2.0/3) {
		t.Fatalf("rate = %v", c.Rate())
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almost(s.Mean, 2) || !almost(s.Median, 2) {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestWilson(t *testing.T) {
	// Known value: 8/10 at z=1.96 gives roughly [0.490, 0.943].
	lo, hi := Wilson(8, 10, 1.96)
	if lo < 0.47 || lo > 0.51 || hi < 0.92 || hi > 0.96 {
		t.Fatalf("Wilson(8,10) = [%.4f, %.4f], want ~[0.490, 0.943]", lo, hi)
	}
	// Edge cases stay inside [0,1] and behave at the boundaries.
	if lo, hi = Wilson(0, 10, 1.96); lo != 0 || hi <= 0 || hi >= 1 {
		t.Fatalf("Wilson(0,10) = [%.4f, %.4f]", lo, hi)
	}
	if lo, hi = Wilson(10, 10, 1.96); hi != 1 || lo <= 0 || lo >= 1 {
		t.Fatalf("Wilson(10,10) = [%.4f, %.4f]", lo, hi)
	}
	if lo, hi = Wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = [%.4f, %.4f], want [0, 1]", lo, hi)
	}
	// The interval tightens as n grows at fixed p.
	lo10, hi10 := Wilson(5, 10, 1.96)
	lo100, hi100 := Wilson(50, 100, 1.96)
	if hi100-lo100 >= hi10-lo10 {
		t.Fatalf("interval did not tighten: n=10 width %.4f, n=100 width %.4f", hi10-lo10, hi100-lo100)
	}
}
