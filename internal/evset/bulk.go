package evset

import (
	"repro/internal/clock"
	"repro/internal/hierarchy"
	"repro/internal/memory"
)

// BulkOptions configures bulk eviction-set construction (§2.2.3, §5.3.1).
type BulkOptions struct {
	Algo   Pruner
	PerSet Options
	// OffsetLimit caps how many of the 64 line offsets BuildWholeSys
	// covers (0 = all); harnesses use it to sample the WholeSys workload
	// and extrapolate.
	OffsetLimit int
}

// BulkResult aggregates a bulk construction run.
type BulkResult struct {
	Sets       []*EvictionSet
	Duration   clock.Cycles
	FilterTime clock.Cycles
	Attempted  int
	Failed     int
}

// UniqueVerified counts, with privileged ground truth, how many distinct
// LLC/SF sets are covered by correctly constructed eviction sets (at
// least `need` truly congruent members). It is the numerator of the
// paper's bulk success rates.
func (r *BulkResult) UniqueVerified(a *hierarchy.Agent, need int) int {
	seen := make(map[hierarchy.SetID]bool)
	for _, s := range r.Sets {
		if s.Verified(a, need) {
			seen[a.SetOf(s.Ta)] = true
		}
	}
	return len(seen)
}

// BuildGroup constructs eviction sets for every LLC/SF set reachable from
// one filtered L2 group, following the paper's bulk procedure (§2.2.3):
// pick a target address, prune, save the set, remove its members from the
// pool; for each subsequent candidate first check whether an existing set
// already evicts it (then it maps to a covered set and is discarded),
// otherwise use it as the next target.
func BuildGroup(e *Env, g *L2Group, opt BulkOptions) BulkResult {
	start := e.Now()
	cfg := e.Host().Config()
	// LLC/SF sets per L2 group: the LLC index extends the L2 index by
	// (LLCIndexBits - L2IndexBits) bits, times the slice count.
	perGroup := (cfg.LLCSets / minInt(cfg.LLCSets, cfg.L2Sets)) * cfg.Slices

	var res BulkResult
	pool := append([]memory.VAddr(nil), g.Members...)
	for len(pool) > cfg.SFWays && len(res.Sets) < perGroup {
		ta := pool[0]
		pool = pool[1:]
		if covered(e, ta, res.Sets) {
			continue
		}
		res.Attempted++
		r := BuildSF(e, opt.Algo, ta, pool, opt.PerSet)
		if !r.OK {
			res.Failed++
			continue
		}
		res.Sets = append(res.Sets, r.Set)
		pool = removeAll(pool, r.Set.Lines)
	}
	res.Duration = e.Now() - start
	return res
}

// covered reports whether any existing set evicts `a` (attack-level test,
// confirmed once to reject noise-induced positives).
func covered(e *Env, a memory.VAddr, sets []*EvictionSet) bool {
	for _, s := range sets {
		if e.TestEviction(TargetSF, a, s.Lines, len(s.Lines), true) &&
			e.TestEviction(TargetSF, a, s.Lines, len(s.Lines), true) {
			return true
		}
	}
	return false
}

func removeAll(pool []memory.VAddr, drop []memory.VAddr) []memory.VAddr {
	del := make(map[memory.VAddr]bool, len(drop))
	for _, d := range drop {
		del[d] = true
	}
	out := pool[:0]
	for _, a := range pool {
		if !del[a] {
			out = append(out, a)
		}
	}
	return out
}

// BuildPageOffset runs the PageOffset scenario: partition the pool into
// L2 groups, then build every LLC/SF set of every group (§5.3.1: 16
// candidate-filtering executions cover all 896 sets on a 28-slice part).
func BuildPageOffset(e *Env, cands *Candidates, opt BulkOptions) BulkResult {
	start := e.Now()
	groups, fstats := PartitionByL2(e, cands.Addrs, opt.PerSet)
	total := BulkResult{FilterTime: fstats.Duration}
	for _, g := range groups {
		r := BuildGroup(e, g, opt)
		total.Sets = append(total.Sets, r.Sets...)
		total.Attempted += r.Attempted
		total.Failed += r.Failed
	}
	total.Duration = e.Now() - start
	return total
}

// BuildWholeSys runs the WholeSys scenario: the L2 groups are built once
// at page offset 0 and re-derived at each of the 64 line offsets by the
// δ-shift property (§5.3.1), so candidate filtering runs only U_L2 times
// for the entire system.
func BuildWholeSys(e *Env, cands *Candidates, opt BulkOptions) BulkResult {
	start := e.Now()
	base := cands
	if base.Offset != 0 {
		base = cands.AtOffset(0)
	}
	groups, fstats := PartitionByL2(e, base.Addrs, opt.PerSet)
	total := BulkResult{FilterTime: fstats.Duration}
	limit := memory.LinesPerPage
	if opt.OffsetLimit > 0 && opt.OffsetLimit < limit {
		limit = opt.OffsetLimit
	}
	for off := 0; off < limit; off++ {
		delta := int64(off) * memory.LineSize
		for _, g := range groups {
			sg := g
			if delta != 0 {
				sg = g.Shift(delta)
			}
			r := BuildGroup(e, sg, opt)
			total.Sets = append(total.Sets, r.Sets...)
			total.Attempted += r.Attempted
			total.Failed += r.Failed
		}
	}
	total.Duration = e.Now() - start
	return total
}

// BuildSingle runs the SingleSet scenario with candidate filtering: one
// L2 eviction set is built for the target address, the pool is filtered
// with it, and one SF eviction set is pruned from the filtered group —
// the configuration of Table 4's SingleSet columns.
func BuildSingle(e *Env, ta memory.VAddr, cands *Candidates, opt BulkOptions) (Result, clock.Cycles) {
	start := e.Now()
	l2set, err := BuildL2(e, BinSearch{}, ta, cands.Addrs, opt.PerSet)
	if err != nil {
		return Result{Duration: e.Now() - start}, e.Now() - start
	}
	members := FilterByL2(e, l2set, cands.Addrs)
	filterTime := e.Now() - start
	r := BuildSF(e, opt.Algo, ta, members, opt.PerSet)
	r.Duration = e.Now() - start
	return r, filterTime
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
