package tenant

import (
	"repro/internal/clock"
	"repro/internal/xrand"
)

func init() {
	register("poisson", "homogeneous per-set Poisson background (the paper's §4.3 measurement; the default)",
		func(s Spec) (Model, error) {
			return &poisson{perCycle: s.Rate / CyclesPerMs}, nil
		})
}

// poisson is the memoryless baseline and the default background of
// every shipped host configuration: every set sees an independent
// Poisson process at the same per-cycle rate, one Poisson(window*rate)
// count drawn from the host rng per synced window.
type poisson struct {
	perCycle float64
}

func (p *poisson) Reset(uint64) {}

// PerCycleRate implements Memoryless: the hierarchy may inline the
// per-window draw at this rate instead of calling Accesses.
func (p *poisson) PerCycleRate() float64 { return p.perCycle }

func (p *poisson) Accesses(rng *xrand.Rand, _ Set, last, now clock.Cycles) int {
	return rng.Poisson(float64(now-last) * p.perCycle)
}
