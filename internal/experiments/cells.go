package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/probe"
)

// This file defines the cell-experiment registry behind the
// configuration-sweep subsystem (internal/sweep). Where the table/figure
// runners in experiments.go reproduce the paper's fixed environments, a
// cell experiment measures ONE protocol on an ARBITRARY hierarchy
// config, so a sweep can place it in every cell of a replacement-policy
// x associativity x slice-count x noise grid. Cells run as ordinary
// engine trials, which is what lets a sweep (and a campaign) flatten its
// whole grid into a single RunTrials call.

// CellTrial runs one trial of a cell experiment on the given config. It
// must obey the engine's determinism contract: all randomness from
// t.Seed (or seeds derived from it), no state outside hosts obtained
// from t.Host.
type CellTrial func(t *Trial, cfg hierarchy.Config) Sample

// Cell describes one registered cell experiment.
type Cell struct {
	ID   string
	Desc string
	// Unit names Sample.Value's unit: "cycles" for durations, "rate" for
	// [0,1] fractions.
	Unit string
	// ConstructionNoise marks cells running the eviction-set construction
	// protocol: on a scaled host their noise rate must be multiplied by
	// ConstructionNoiseScale for a declared paper rate to be equivalent
	// (see that function's comment). Monitoring cells keep raw rates.
	ConstructionNoise bool
	Run               CellTrial
}

var cells = map[string]Cell{}

// RegisterCell adds a cell experiment to the registry. It is exported so
// other packages (internal/scenario) can contribute cells — a scenario
// registered as a cell lets a sweep grid run a whole end-to-end attack
// in every configuration cell, not just a micro-experiment.
func RegisterCell(c Cell) {
	if _, dup := cells[c.ID]; dup {
		panic("experiments: duplicate cell id " + c.ID)
	}
	cells[c.ID] = c
}

// LookupCell returns the cell experiment registered under id.
func LookupCell(id string) (Cell, bool) {
	c, ok := cells[id]
	return c, ok
}

// CellIDs returns the sorted ids of all cell experiments.
func CellIDs() []string {
	ids := make([]string, 0, len(cells))
	for id := range cells {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CellList returns "id  description" lines for every cell experiment,
// sorted by id (the -list output of cmd/llcsweep).
func CellList() []string {
	ids := CellIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		c := cells[id]
		out[i] = fmt.Sprintf("%-16s [%s] %s", c.ID, c.Unit, c.Desc)
	}
	return out
}

func init() {
	// Eviction-set construction cells: one single-set SF build per trial,
	// success = the set verifies, value = construction time.
	for _, algo := range []evset.Pruner{
		evset.GroupTesting{EarlyTermination: true},
		evset.GroupTesting{},
		evset.PrimeScope{},
		evset.PrimeScope{Recharge: true},
		evset.BinSearch{},
	} {
		algo := algo
		RegisterCell(Cell{
			ID:                "evset/" + strings.ToLower(algo.Name()),
			Desc:              fmt.Sprintf("single-set SF eviction-set construction with %s (unfiltered)", algo.Name()),
			Unit:              "cycles",
			ConstructionNoise: true,
			Run: func(t *Trial, cfg hierarchy.Config) Sample {
				ok, d := singleSetTrial(t, cfg, algo, t.Seed, evset.DefaultOptions())
				return Sample{OK: ok, Value: float64(d)}
			},
		})
	}

	// TestEviction timing cells: the Parallel Probing speed claim, per
	// config. One trial = one timed TestEviction over a 3U candidate set.
	RegisterCell(Cell{
		ID:   "probe/parallel",
		Desc: "one parallel TestEviction over a 3U candidate set",
		Unit: "cycles",
		Run:  testEvictionCell(true),
	})
	RegisterCell(Cell{
		ID:   "probe/sequential",
		Desc: "one sequential (pointer-chase) TestEviction over a 3U candidate set",
		Unit: "cycles",
		Run:  testEvictionCell(false),
	})

	// Detection cell: build an eviction set, run the covert channel with
	// Parallel Probing at a 5k-cycle sender interval, value = detection
	// rate. Success = the setup (construction) succeeded, so a policy that
	// defeats construction shows up as a success-rate drop, not a crash.
	// Monitoring timescales are set by the sender interval, which does not
	// scale, so the cell keeps raw noise rates.
	RegisterCell(Cell{
		ID:   "probe/detect",
		Desc: "Parallel Probing covert-channel detection rate (5k-cycle interval)",
		Unit: "rate",
		Run: func(t *Trial, cfg hierarchy.Config) Sample {
			e, lines, alt, sender, ok := CovertSetup(t, cfg, t.Seed)
			if !ok {
				return Sample{}
			}
			m := probe.NewMonitor(e, probe.Parallel, lines).WithAlt(alt)
			res := probe.RunCovertChannel(e, m, 2, sender, 5000, 200)
			return Sample{OK: true, Value: res.DetectionRate}
		},
	})
}

// testEvictionCell builds the TestEviction timing cell for one mode.
func testEvictionCell(parallel bool) CellTrial {
	return func(t *Trial, cfg hierarchy.Config) Sample {
		h := t.Host(cfg, t.Seed)
		e := evset.NewEnv(h, t.Seed^0x5eec)
		u := cfg.LLCUncertainty()
		pool := evset.NewCandidates(e, 3*u+1, 0)
		ta := pool.Addrs[0]
		t0 := h.Clock().Now()
		e.TestEviction(evset.TargetLLC, ta, pool.Addrs[1:], 3*u, parallel)
		return Sample{OK: true, Value: float64(h.Clock().Now() - t0)}
	}
}
