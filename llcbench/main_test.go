package main

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"slices"
	"testing"
)

func TestOpListDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 40} {
		a, b := opList(seed, 12), opList(seed, 12)
		if !slices.Equal(a, b) {
			t.Fatalf("seed %d: op lists differ: %v vs %v", seed, a, b)
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		for i, s := range sorted {
			if s != uint64(i+1) {
				t.Fatalf("seed %d: op list %v is not a permutation of corpus seeds 1..12", seed, a)
			}
		}
	}
	if slices.Equal(opList(1, 12), opList(2, 12)) {
		t.Error("workload seeds 1 and 2 give the same op order")
	}
}

func TestOpCount(t *testing.T) {
	for _, c := range []struct {
		seconds       int
		nominal       float64
		corpus, wantN int
	}{
		{30, 6, 12, 5},
		{1, 6, 12, 1},
		{600, 6, 12, 12},
		{30, 0.01, 3000, 3000},
	} {
		if got := opCount(c.seconds, c.nominal, c.corpus); got != c.wantN {
			t.Errorf("opCount(%d, %g, %d) = %d, want %d", c.seconds, c.nominal, c.corpus, got, c.wantN)
		}
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, ok := p90(ramp(99)); ok {
		t.Error("99 samples: p90 reported with only 9 samples beyond it")
	}
	v, ok := p90(ramp(100))
	if !ok || v != 90 {
		t.Errorf("100 samples: p90 = %g, %v; want 90, true", v, ok)
	}
	flat := make([]float64, 500)
	if _, ok := p90(flat); ok {
		t.Error("500 equal samples: p90 reported though no sample lies beyond it")
	}
	if _, ok := p90(nil); ok {
		t.Error("no samples: p90 reported")
	}
}

func TestTamperedDigestFailsOp(t *testing.T) {
	b := &bench{want: map[string]string{"3/result": "00112233aabbccdd", "3/cells": "0123456789abcdef"}}
	if !b.checkOp("grid seed 3", map[string]string{"3/result": "00112233aabbccdd", "3/cells": "0123456789abcdef"}) {
		t.Fatal("matching digests failed the op")
	}
	if b.failed != 0 {
		t.Fatalf("failed = %d after a matching op", b.failed)
	}
	if b.checkOp("grid seed 3", map[string]string{"3/result": "00112233aabbccdd", "3/cells": "0123456789abcdee"}) {
		t.Fatal("a tampered digest passed")
	}
	if b.failed != 1 {
		t.Fatalf("failed = %d after one tampered op, want 1", b.failed)
	}
	if b.checkOp("grid seed 4", map[string]string{"4/result": "00112233aabbccdd"}) {
		t.Fatal("an op with no stored digest passed")
	}
}

func TestTimeOpCountsPanicAsFailure(t *testing.T) {
	b := &bench{}
	if _, ok := b.timeOp("boom", func() error { panic("boom") }); ok {
		t.Fatal("a panicking op succeeded")
	}
	if _, ok := b.timeOp("err", func() error { return errors.New("non-2xx") }); ok {
		t.Fatal("an erroring op succeeded")
	}
	if b.attempted != 2 || b.failed != 2 {
		t.Fatalf("attempted, failed = %d, %d; want 2, 2", b.attempted, b.failed)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEndMetrics), perLayerMetrics...) {
		if !validName(m.Name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, bad := range []string{"", "campaign.cell_s.probe/detect", ".lead", "sp ace", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	if !slices.Equal(bj.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", bj.EndToEnd, endToEndMetrics)
	}
	if !slices.Equal(bj.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, program reports %v", bj.PerLayer, perLayerMetrics)
	}
}

func TestNormalizerUsesNearbySamples(t *testing.T) {
	b := &bench{ref: []refSample{
		{T: 10, MS: refNominalMS * 4},
		{T: 0.1, MS: refNominalMS * 2},
		{T: 0.2, MS: refNominalMS * 2},
		{T: 5, MS: refNominalMS},
		{T: 6, MS: refNominalMS * 3},
	}}
	n := b.normalizer()
	got := n.scaleSpans([]float64{2, 2, 4, 8}, []span{
		{0, 0.3}, // the samples at 0.1 and 0.2 (2x nominal)
		{5, 6},   // the samples at 5 and 6 (mean 2x)
		{4, 8},   // 5 and 6 again; 10 lies outside the stretch
		{20, 21}, // no sample within 0.5 s: the nearest, at 10 (4x)
	})
	want := []float64{1, 1, 2, 2}
	if !slices.Equal(got, want) {
		t.Errorf("scaleSpans = %v, want %v", got, want)
	}
	if got := (normalizer{}).scale(0, 1); got != 1 {
		t.Errorf("without samples, scale = %g, want 1", got)
	}
}

func TestUpdateExpectedMerges(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/expected.json"
	e := &expectedFile{Workloads: map[string]map[string]string{"keyrecovery": {"1": "aa", "2": "bb"}}}
	if err := e.write(path); err != nil {
		t.Fatal(err)
	}
	b := &bench{opt: options{update: true}, got: map[string]string{}}
	b.check("2", "cc")
	if err := saveDigests(path, "keyrecovery", b.got); err != nil {
		t.Fatal(err)
	}
	e, err := loadExpected(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"1": "aa", "2": "cc"}
	if !maps.Equal(e.Workloads["keyrecovery"], want) {
		t.Errorf("after update: %v, want %v (seed 1 kept, seed 2 replaced)", e.Workloads["keyrecovery"], want)
	}
}
