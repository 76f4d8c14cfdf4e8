package evset_test

import (
	"fmt"

	"repro/internal/evset"
	"repro/internal/hierarchy"
)

// ExampleBuildSingle builds one Snoop Filter eviction set on a
// simulated Cloud Run host with the paper's techniques, L2-driven
// candidate filtering (§5.1) plus binary-search pruning (§5.2), and
// checks that it evicts the target line.
func ExampleBuildSingle() {
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
		fmt.Printf("construction failed after %d attempts\n", res.Attempts)
		return
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
	// Output:
	// host: Scaled-SKX — 4 slices x 512 LLC sets, 8-way SF, noise 11.5 acc/ms/set
	// calibrated thresholds: private<112 cycles, LLC<242 cycles
	// candidate pool: 768 addresses at page offset 0x2c0
	// built a 8-line SF eviction set in 0.39 ms (filtering 0.32 ms, 1 attempts, 0 backtracks)
	// self-test: evicted the target in 10/10 trials
	// ground truth: true — all 8 lines congruent with the target's SF set 1:267
	// virtual time consumed: 0.39 ms
}
