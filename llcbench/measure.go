package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/xrand"
)

// metricSpec declares one reported metric; BENCHMARK.json at the
// repository root lists the same names and units (a test keeps the two
// in step).
type metricSpec struct {
	Name, Unit, Better string
}

// endToEndMetrics are reported by every untraced run, on every
// workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_s_p50", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "1", "higher"},
	{"trial_ok_frac", "1", "higher"},
	{"sim_s_p50", "sim_s", "lower"},
}

// perLayerMetrics are reported by every traced run; a layer the
// workload does not exercise reports 0. Times are per call (or per op
// where the name says so), in host seconds unless the unit says sim_s.
var perLayerMetrics = func() []metricSpec {
	var ms []metricSpec
	for _, ph := range []string{"train", "build", "scan", "extract", "lattice", "unattributed"} {
		ms = append(ms,
			metricSpec{"phase." + ph + ".host_s", "s", "lower"},
			metricSpec{"phase." + ph + ".sim_s", "sim_s", "lower"})
	}
	ms = append(ms,
		metricSpec{"phase.unattributed.host_frac", "1", "lower"},
		metricSpec{"train.collect_s", "s", "lower"},
		metricSpec{"train.extractor_fit_s", "s", "lower"},
		metricSpec{"train.scanner_fit_s", "s", "lower"},
		metricSpec{"train.extractor_fit_frac", "1", "lower"},
		metricSpec{"lattice.attempts", "count", "lower"},
		metricSpec{"lattice.keys_per_attempt", "1", "higher"},
	)
	for _, k := range append(slices.Clone(gridExperiments), gridPolicies...) {
		ms = append(ms, metricSpec{"campaign.cell_s." + metricKey(k), "s", "lower"})
	}
	ms = append(ms,
		metricSpec{"engine.trials", "count", "higher"},
		metricSpec{"engine.trial_s", "s", "lower"},
		metricSpec{"campaign.idle_s", "s", "lower"},
		metricSpec{"campaign.overhead_s", "s", "lower"},
		metricSpec{"campaign.resume_s", "s", "lower"},
		metricSpec{"sweep.run_s", "s", "lower"},
		metricSpec{"artifact.append_s", "s", "lower"},
		metricSpec{"artifact.open_s", "s", "lower"},
		metricSpec{"artifact.merge_s", "s", "lower"},
		metricSpec{"artifact.checkkeys_s", "s", "lower"},
		metricSpec{"hierarchy.new_host_s", "s", "lower"},
		metricSpec{"serve.submit_s", "s", "lower"},
		metricSpec{"serve.run_s", "s", "lower"},
		metricSpec{"serve.result_s", "s", "lower"},
		metricSpec{"serve.attach_s", "s", "lower"},
		metricSpec{"serve.fetch_s_p50", "s", "lower"},
		metricSpec{"serve.op_s_p90", "s", "lower"},
		metricSpec{"serve.queue_depth_max", "count", "lower"},
		metricSpec{"machine.ref_ms", "ms", "lower"},
		metricSpec{"trace.overhead_frac", "1", "lower"},
	)
	return ms
}()

// metricKey turns an experiment or policy id into a metric-name
// component: "/" becomes "-".
func metricKey(id string) string { return strings.ReplaceAll(id, "/", "-") }

// validName reports whether s is a legal metric name: a letter or digit
// first, then at most 63 of [A-Za-z0-9_.-].
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// opCount sizes the fixed op list: --seconds of nominal ops, at least
// one, at most the digest corpus.
func opCount(seconds int, nominalOpS float64, corpus int) int {
	return min(corpus, max(1, int(math.Ceil(float64(seconds)/nominalOpS))))
}

// opList returns corpus seeds 1..n in an order drawn from the workload
// seed. Every run with the same n executes the same ops, so runs at
// different workload seeds measure equal work and their outputs all
// have stored digests; the seed only changes the order.
func opList(seed uint64, n int) []uint64 {
	perm := xrand.New(xrand.Stream(seed, 0x11cbe4c4)).Perm(n)
	ops := make([]uint64, n)
	for i, p := range perm {
		ops[i] = uint64(p) + 1
	}
	return ops
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie above a percentile before
// it is reported.
const tailMinBeyond = 10

// p90 returns the nearest-rank 90th percentile of xs, and whether at
// least tailMinBeyond samples lie above it (the condition for reporting
// it at all).
func p90(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(0.9 * float64(len(s))))
	v := s[rank-1]
	beyond := 0
	for _, x := range s[rank:] {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= tailMinBeyond
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// digest is the short content hash kept in expected.json.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// expectedFile is expected.json: per workload, output digests keyed by
// op seed and output name.
type expectedFile struct {
	Note      string                       `json:"note"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadExpected(path string) (*expectedFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading expected digests: %w", err)
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if e.Workloads == nil {
		e.Workloads = map[string]map[string]string{}
	}
	return &e, nil
}

// saveDigests merges a run's digests into the workload's stored ones,
// so a short run never drops digests that longer runs need.
func saveDigests(path, workload string, got map[string]string) error {
	e, err := loadExpected(path)
	if err != nil {
		return err
	}
	if e.Workloads[workload] == nil {
		e.Workloads[workload] = map[string]string{}
	}
	maps.Copy(e.Workloads[workload], got)
	return e.write(path)
}

func (e *expectedFile) write(path string) error {
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// machine identifies the host a result was measured on; results from
// different fingerprints are never compared.
type machine struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PMU        bool   `json:"pmu"`
}

func fingerprint() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A hardware PMU registers the "cpu" perf event source; a VM without
	// one exposes software events only.
	_, err := os.Stat("/sys/bus/event_source/devices/cpu")
	m.PMU = err == nil
	return m
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
