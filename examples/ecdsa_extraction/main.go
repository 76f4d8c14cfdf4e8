// ECDSA nonce extraction: the heart of §7.3, as a thin wrapper over the
// scenario registry (internal/scenario). Each trial runs the FULL
// pipeline — eviction-set construction, PSD target identification, and
// Parallel-Probing extraction of the victim's nonce bits — on its own
// simulated Cloud Run host; the report aggregates success rates (Wilson
// 95% intervals) and per-step cycle budgets. The same pipeline runs from
// the command line as `llcattack -scenario e2e/extract`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/clock"
	"repro/internal/scenario"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 99, "deterministic seed")
		trials   = flag.Int("trials", 4, "independent end-to-end trials")
		parallel = flag.Int("parallel", 0, "trial workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	rep, err := scenario.RunWithObs(context.Background(), "e2e/extract", nil, nil, *trials, *parallel, *seed, nil)
	if err != nil {
		log.Fatal(err)
	}
	agg := rep.Aggregate
	fmt.Printf("e2e/extract: %s\n", rep.Desc)
	fmt.Printf("%d/%d trials extracted a signal (success rate %.0f%%, Wilson 95%% [%.0f%%, %.0f%%])\n",
		agg.Successes, agg.Trials, 100*agg.SuccessRate, 100*agg.SuccessLo, 100*agg.SuccessHi)
	if agg.BitsTotal > 0 {
		fmt.Printf("nonce bits: %d/%d recovered (%.1f%%), %d wrong (%.1f%% bit error rate)\n",
			agg.BitsRecovered, agg.BitsTotal, 100*float64(agg.BitsRecovered)/float64(agg.BitsTotal),
			agg.BitsWrong, 100*float64(agg.BitsWrong)/float64(max(agg.BitsRecovered, 1)))
	}
	for _, s := range agg.Steps {
		fmt.Printf("  step %-8s reached %d, ok %d (%.0f%%), median %.2f ms\n",
			s.Name, s.Reached, s.Successes, 100*s.SuccessRate, clock.Cycles(s.CyclesMedian).Millis())
	}
	fmt.Println("\npaper §7.3: median 81% of nonce bits, 3% bit error rate; with these bits")
	fmt.Println("across signatures, lattice attacks recover the key (examples/key_recovery).")
}
