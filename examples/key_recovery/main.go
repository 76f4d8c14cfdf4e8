// Key recovery: the complete attack chain, one step beyond the paper's
// demonstration, as a thin wrapper over the scenario registry. Each
// trial monitors signings through the cache side channel, anchors the
// extracted bit stream at the ladder start, measures each nonce's ladder
// length, and feeds the leaked MSBs into the HNP lattice until the
// victim's sect163 PRIVATE KEY verifies against its public point.
// Everything the attacker uses is attacker-visible; ground truth only
// scores the result. The same pipeline runs from the command line as
// `llcattack -scenario e2e/keyrecovery`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/scenario"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 2024, "deterministic seed")
		trials   = flag.Int("trials", 2, "independent end-to-end trials")
		parallel = flag.Int("parallel", 0, "trial workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	rep, err := scenario.RunWithObs(context.Background(), "e2e/keyrecovery", nil, nil, *trials, *parallel, *seed, nil)
	if err != nil {
		log.Fatal(err)
	}
	agg := rep.Aggregate
	fmt.Printf("e2e/keyrecovery: %s\n", rep.Desc)
	for i, o := range rep.Outcomes {
		verdict := "key NOT recovered"
		if o.KeyRecovered {
			verdict = "PRIVATE KEY RECOVERED (matches ground truth)"
		}
		fmt.Printf("trial %d: %s — %d leaks, %d lattice attempts, %.2f s of victim time\n",
			i, verdict, o.Leaks, o.LatticeAttempts, o.TotalCycles.Seconds())
	}
	fmt.Printf("\n%d/%d trials recovered the key (success rate %.0f%%, Wilson 95%% [%.0f%%, %.0f%%])\n",
		agg.KeysRecovered, agg.Trials, 100*agg.SuccessRate, 100*agg.SuccessLo, 100*agg.SuccessHi)
	fmt.Println("the paper extracts the nonce bits (§7.3) and cites lattice attacks")
	fmt.Println("[LadderLeak, Howgrave-Graham–Smart] for this final step.")
}
