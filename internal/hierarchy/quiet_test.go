package hierarchy

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/tenant"
)

// congruentLines returns n of the agent's lines that share one LLC/SF
// set (and so, at one page offset, one L1 set), allocating pages until
// the set has n: the shape of a minimal SF eviction set.
func congruentLines(t *testing.T, a *Agent, n int) []memory.VAddr {
	t.Helper()
	groups := map[SetID][]memory.VAddr{}
	for page := 0; page < 4096; page++ {
		va := a.Alloc(1).LineAt(0, 0)
		set := a.SetOf(va)
		groups[set] = append(groups[set], va)
		if g := groups[set]; len(g) == n {
			return g
		}
	}
	t.Fatalf("no LLC/SF set collected %d lines", n)
	return nil
}

// quietTally counts the quiet-batch kernel's outcomes over the batches
// run through it, read from observable state. A batch the kernel
// replays is one that matches the memo (same core, address space and
// lines; L1 Version unchanged). It committed if it left the core's L1
// Version unchanged, since the kernel makes no touches, and aborted if
// the Version advanced, since the general path that then runs the
// batch touches the L1 on every access.
type quietTally struct{ commits, aborts int }

// batch runs a.AccessParallel(vas) and tallies the kernel's outcome.
func (q *quietTally) batch(a *Agent, vas []memory.VAddr) (clock.Cycles, int) {
	l1 := a.h.cores[a.core].l1
	replayed, ver := a.h.quiet.matches(a, vas, l1), l1.Version()
	t, misses := a.AccessParallel(vas)
	switch {
	case !replayed:
	case l1.Version() == ver:
		q.commits++
	default:
		q.aborts++
	}
	return t, misses
}

// TestQuietBatchEngages runs keyrecovery's monitor loop on the scaled
// cloud host: an 8-line Parallel-Probing batch repeated back to back,
// the rdtsc overhead between probes, a two-round refetching prime after
// every probe that missed, and a victim on another core touching a line
// of the same set every 20000 cycles. The quiet-batch kernel must
// commit at least 90% of the probes, and abort at least once.
func TestQuietBatchEngages(t *testing.T) {
	h := NewHost(Scaled(4).WithCloudNoise(), 3)
	a := h.NewAgent(0)
	victim := h.NewAgentSharing(2, a.AddressSpace())
	lines := congruentLines(t, a, 9)
	probe, target := lines[:8], victim.Translate(lines[8])
	prime := func() {
		for round := 0; round < 2; round++ {
			for _, va := range probe {
				a.DropL1(va)
				a.EvictPrivateQuiet(va)
			}
			a.AccessParallel(probe)
		}
	}
	prime()
	const probes = 100000
	next := h.clk.Now()
	measure := clock.Cycles(h.cfg.Lat.Measure)
	var q quietTally
	for i := 0; i < probes; i++ {
		if now := h.clk.Now(); now >= next {
			next = now + 20000
			h.Schedule(Event{Time: next, Core: 2, PA: target, Refetch: true})
		}
		_, misses := q.batch(a, probe)
		h.clk.Advance(measure)
		if misses > 0 {
			prime()
		}
	}
	commits, aborts := q.commits, q.aborts
	if frac := float64(commits) / probes; frac < 0.9 || aborts == 0 {
		t.Fatalf("kernel committed %d of %d probes (%.3f), aborted %d; want at least 90%% and an abort", commits, probes, frac, aborts)
	}
	t.Logf("committed %d of %d probes (%.4f), aborted %d", commits, probes, float64(commits)/probes, aborts)
}

// TestQuietBatchBypasses pins which hosts never replay: jitter off, a
// tenant that is not memoryless, and every defense with a per-access or
// measurement hook. Their repeated all-L1-hit batches leave no memo and
// run on the general path.
func TestQuietBatchBypasses(t *testing.T) {
	noJitter := Scaled(4).WithCloudNoise()
	noJitter.Lat.JitterFrac = 0
	cases := map[string]Config{
		"jitter 0":  noJitter,
		"burst":     Scaled(4).WithTenants(tenant.Spec{Model: "burst", Rate: 34.5, LLCProb: 0.5}),
		"randomize": Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "randomize", Period: 5000}),
		"scatter":   Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "scatter"}),
		"quiesce":   Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "quiesce", Quantum: 16, Jitter: 3}),
	}
	for name, cfg := range cases {
		h := NewHost(cfg, 5)
		a := h.NewAgent(0)
		lines := congruentLines(t, a, 4)
		var q quietTally
		for i := 0; i < 50; i++ {
			q.batch(a, lines)
		}
		if h.quietHost || h.quiet.as != nil || q.commits+q.aborts != 0 {
			t.Errorf("%s: quiet host %v, memo %v, counts %+v; want a host that bypasses every batch", name, h.quietHost, h.quiet.as != nil, q)
		}
	}
	for name, cfg := range map[string]Config{"undefended": Scaled(4).WithCloudNoise(), "partition": Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "partition", Ways: 4})} {
		if h := NewHost(cfg, 5); !h.quietHost {
			t.Errorf("%s: not a quiet host", name)
		}
	}
}

// TestOracleCorpusTakesQuietPaths runs the committed probe-loop entries
// of the FuzzHostMatchesModel corpus and checks that each still takes
// the kernel path it was committed for, so a change to the oracle's
// decoding cannot quietly turn them into scripts that never reach the
// kernel. Each also fails on a mutant of the kernel that its path
// exposes: a dropped record-time Version check (event-on-probing-core),
// a strict drain test (event-due-aborts), a dropped second tenant draw
// (two-poisson), a clock committed before the abort checks
// (abort-keeps-clock).
func TestOracleCorpusTakesQuietPaths(t *testing.T) {
	want := map[string]string{
		"lru-probe-loop-commits":            "commit",
		"lru-partition-probe-loop-commits":  "commit",
		"lru-two-poisson-probe-loop":        "commit",
		"lru-event-on-probing-core":         "commit",
		"plru-probe-loop-tenant-aborts":     "abort",
		"lru-probe-loop-event-due-aborts":   "abort",
		"lru-probe-loop-abort-keeps-clock":  "abort",
		"lru-burst-probe-loop-bypasses":     "bypass",
		"lru-no-jitter-probe-loop-bypasses": "bypass",
		"lru-randomize-probe-loop-bypasses": "bypass",
		"lru-scatter-probe-loop-bypasses":   "bypass",
		"lru-quiesce-probe-loop-bypasses":   "bypass",
	}
	for name, path := range want {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzHostMatchesModel", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus entry: %v", name, err)
		}
		p := runOracleScript(t, []byte(data))
		h, q := p.h, p.quiet
		var took bool
		switch path {
		case "commit":
			took = q.commits > 0
		case "abort":
			took = q.aborts > 0 && q.commits > 0
		case "bypass":
			took = !h.quietHost
		}
		if !took {
			t.Errorf("%s: counts %+v, want the %s path", name, q, path)
		}
	}
}
