// Quickstart: build one Snoop Filter eviction set on a simulated Cloud
// Run host with the paper's techniques — L2-driven candidate filtering
// (§5.1) plus binary-search pruning (§5.2) — and verify that it works by
// evicting the target line.
package main

import (
	"fmt"
	"log"

	"repro/internal/evset"
	"repro/internal/hierarchy"
)

func main() {
	// A Skylake-SP-shaped host with Cloud Run background noise. Use
	// hierarchy.SkylakeSP(28) for the full 57,344-set geometry.
	cfg := hierarchy.Scaled(4).WithCloudNoise()
	host := hierarchy.NewHost(cfg, 42)
	fmt.Printf("host: %s — %d slices x %d LLC sets, %d-way SF, noise %.1f acc/ms/set\n",
		cfg.Name, cfg.Slices, cfg.LLCSets, cfg.SFWays, cfg.Tenants[0].Rate)

	// The attacker: main thread + helper thread (the helper re-accesses
	// lines to force them into the LLC, §4.2).
	env := evset.NewEnv(host, 7)
	fmt.Printf("calibrated thresholds: private<%.0f cycles, LLC<%.0f cycles\n",
		env.ThreshPrivate, env.ThreshLLC)

	// A candidate pool of 3·U·W same-offset addresses (§4.2). Every
	// candidate lives on its own 4 kB page: the attacker controls only
	// the page offset.
	pool := evset.NewCandidates(env, evset.DefaultPoolSize(cfg), 0x2c0)
	target := pool.Addrs[0]
	fmt.Printf("candidate pool: %d addresses at page offset %#x\n", len(pool.Addrs), pool.Offset)

	// Build: L2 eviction set -> filter the pool 16x smaller -> prune with
	// binary search -> extend to the SF associativity.
	start := host.Clock().Now()
	res, filterTime := evset.BuildSingle(env, target, pool, evset.BulkOptions{
		Algo:   evset.BinSearch{},
		PerSet: evset.FilteredOptions(),
	})
	if !res.OK {
		log.Fatalf("construction failed after %d attempts", res.Attempts)
	}
	fmt.Printf("built a %d-line SF eviction set in %.2f ms (filtering %.2f ms, %d attempts, %d backtracks)\n",
		res.Set.Size(), res.Duration.Millis(), filterTime.Millis(), res.Attempts, res.Backtracks)

	// Attack-level check: the set must evict the target repeatably.
	ok := 0
	for i := 0; i < 10; i++ {
		if env.TestEviction(evset.TargetSF, target, res.Set.Lines, res.Set.Size(), true) {
			ok++
		}
	}
	fmt.Printf("self-test: evicted the target in %d/10 trials\n", ok)

	// Privileged ground truth (only the simulator can do this).
	fmt.Printf("ground truth: %v — all %d lines congruent with the target's SF set %v\n",
		res.Set.Verified(env.Main, cfg.SFWays), res.Set.Size(), env.Main.SetOf(target))
	fmt.Printf("virtual time consumed: %.2f ms\n", (host.Clock().Now() - start).Millis())
}
