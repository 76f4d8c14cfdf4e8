// PSD scan: how the attacker finds the victim's target SF set among
// hundreds of candidates (§6.2, §7.2), as a thin wrapper over the
// scenario registry. Each trial trains the Welch-PSD SVM scanner in the
// controlled setup, builds eviction sets for every SF set at the
// victim's page offset, and scans while the victim signs until the
// target is identified. Success requires identifying the CORRECT set
// (privileged ground-truth check, as in Table 6). The same pipeline runs
// from the command line as `llcattack -scenario scan/psd`.
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
		seed     = flag.Uint64("seed", 5, "deterministic seed")
		trials   = flag.Int("trials", 4, "independent scan trials")
		parallel = flag.Int("parallel", 0, "trial workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	rep, err := scenario.RunWithObs(context.Background(), "scan/psd", nil, nil, *trials, *parallel, *seed, nil)
	if err != nil {
		log.Fatal(err)
	}
	agg := rep.Aggregate
	fmt.Printf("scan/psd: %s\n", rep.Desc)
	fmt.Printf("%d/%d trials identified the correct set (success rate %.0f%%, Wilson 95%% [%.0f%%, %.0f%%])\n",
		agg.Successes, agg.Trials, 100*agg.SuccessRate, 100*agg.SuccessLo, 100*agg.SuccessHi)
	for _, s := range agg.Steps {
		fmt.Printf("  step %-6s reached %d, ok %d (%.0f%%), median %.2f ms\n",
			s.Name, s.Reached, s.Successes, 100*s.SuccessRate, clock.Cycles(s.CyclesMedian).Millis())
	}
	fmt.Println("\npaper Table 6: 94.1% success in 6.1 s at ~831 sets/s under PageOffset")
}
