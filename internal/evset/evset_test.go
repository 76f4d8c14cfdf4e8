package evset

import (
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/memory"
)

func newQuietEnv(t testing.TB, seed uint64) *Env {
	t.Helper()
	cfg := hierarchy.Scaled(4)
	cfg.Tenants = nil
	h := hierarchy.NewHost(cfg, seed)
	return NewEnv(h, seed^0xabcdef)
}

func newCloudEnv(t testing.TB, seed uint64) *Env {
	t.Helper()
	cfg := hierarchy.Scaled(4).WithCloudNoise()
	h := hierarchy.NewHost(cfg, seed)
	return NewEnv(h, seed^0xabcdef)
}

func TestCalibrationOrdersThresholds(t *testing.T) {
	e := newQuietEnv(t, 1)
	if e.ThreshPrivate <= 0 || e.ThreshLLC <= e.ThreshPrivate {
		t.Fatalf("thresholds not ordered: private=%.1f llc=%.1f", e.ThreshPrivate, e.ThreshLLC)
	}
}

func TestTestEvictionLLCGroundTruth(t *testing.T) {
	e := newQuietEnv(t, 2)
	cfg := e.Host().Config()
	cands := NewCandidates(e, DefaultPoolSize(cfg), 0)
	ta := cands.Addrs[0]
	pool := cands.Addrs[1:]

	// Privileged split of the pool into congruent / non-congruent.
	target := e.Main.SetOf(ta)
	var congruent, other []memory.VAddr
	for _, va := range pool {
		if e.Main.SetOf(va) == target {
			congruent = append(congruent, va)
		} else if len(other) < 4*cfg.LLCWays {
			other = append(other, va)
		}
	}
	if len(congruent) < cfg.LLCWays {
		t.Fatalf("pool holds only %d congruent lines, need %d", len(congruent), cfg.LLCWays)
	}
	if !e.TestEviction(TargetLLC, ta, congruent, cfg.LLCWays, true) {
		t.Error("LLCWays congruent lines should evict ta from the LLC")
	}
	if e.TestEviction(TargetLLC, ta, other, len(other), true) {
		t.Error("non-congruent lines must not evict ta from the LLC")
	}
	if !e.TestEviction(TargetSF, ta, congruent, cfg.SFWays, true) {
		t.Error("SFWays congruent lines should evict ta's SF entry")
	}
}

func buildOne(t *testing.T, e *Env, p Pruner) Result {
	t.Helper()
	cfg := e.Host().Config()
	cands := NewCandidates(e, DefaultPoolSize(cfg), 0)
	ta := cands.Addrs[0]
	res := BuildSF(e, p, ta, cands.Addrs[1:], DefaultOptions())
	return res
}

func TestBuildSFAllAlgorithms(t *testing.T) {
	algos := []Pruner{BinSearch{}, GroupTesting{}, GroupTesting{EarlyTermination: true}, PrimeScope{}, PrimeScope{Recharge: true}}
	for i, p := range algos {
		p := p
		i := i
		t.Run(p.Name(), func(t *testing.T) {
			e := newQuietEnv(t, 100+uint64(i))
			res := buildOne(t, e, p)
			if !res.OK {
				t.Fatalf("%s failed after %d attempts (%d backtracks)", p.Name(), res.Attempts, res.Backtracks)
			}
			cfg := e.Host().Config()
			if res.Set.Size() != cfg.SFWays {
				t.Fatalf("set size = %d, want %d (minimal)", res.Set.Size(), cfg.SFWays)
			}
			if !res.Set.Verified(e.Main, cfg.SFWays) {
				t.Fatalf("%s produced a set that is not truly congruent", p.Name())
			}
		})
	}
}

func TestBuildSFUnderCloudNoiseBinS(t *testing.T) {
	ok := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		e := newCloudEnv(t, 200+uint64(i))
		cfg := e.Host().Config()
		cands := NewCandidates(e, DefaultPoolSize(cfg), 0)
		ta := cands.Addrs[0]
		l2set, err := BuildL2(e, BinSearch{}, ta, cands.Addrs[1:], DefaultOptions())
		if err != nil {
			continue
		}
		members := FilterByL2(e, l2set, cands.Addrs[1:])
		res := BuildSF(e, BinSearch{}, ta, members, FilteredOptions())
		if res.OK && res.Set.Verified(e.Main, cfg.SFWays) {
			ok++
		}
	}
	if ok < trials-1 {
		t.Fatalf("BinS+filter succeeded only %d/%d times under cloud noise", ok, trials)
	}
}

func TestFilterByL2KeepsCongruent(t *testing.T) {
	e := newQuietEnv(t, 3)
	cfg := e.Host().Config()
	cands := NewCandidates(e, DefaultPoolSize(cfg), 0)
	ta := cands.Addrs[0]
	l2set, err := BuildL2(e, BinSearch{}, ta, cands.Addrs[1:], DefaultOptions())
	if err != nil {
		t.Fatalf("BuildL2: %v", err)
	}
	members := FilterByL2(e, l2set, cands.Addrs[1:])

	// Every line congruent with ta in the LLC must survive the filter
	// (the filter must not lose LLC-congruent addresses), and the pool
	// must shrink by roughly U_L2.
	target := e.Main.SetOf(ta)
	kept := make(map[memory.VAddr]bool, len(members))
	for _, m := range members {
		kept[m] = true
	}
	lost := 0
	for _, va := range cands.Addrs[1:] {
		if e.Main.SetOf(va) == target && !kept[va] {
			lost++
		}
	}
	if lost > 1 {
		t.Errorf("filter lost %d LLC-congruent candidates", lost)
	}
	maxKeep := 2 * len(cands.Addrs) / cfg.L2Uncertainty()
	if len(members) > maxKeep {
		t.Errorf("filter kept %d of %d candidates, want <= %d", len(members), len(cands.Addrs), maxKeep)
	}
}

func TestCandidatesAtOffsetPreservesPages(t *testing.T) {
	e := newQuietEnv(t, 4)
	c := NewCandidates(e, 64, 0)
	shifted := c.AtOffset(0x40)
	for i := range c.Addrs {
		if shifted.Addrs[i] != c.Addrs[i]+0x40 {
			t.Fatalf("addr %d: %#x -> %#x", i, c.Addrs[i], shifted.Addrs[i])
		}
		if shifted.Addrs[i].PageNumber() != c.Addrs[i].PageNumber() {
			t.Fatal("shift crossed a page boundary")
		}
	}
}
