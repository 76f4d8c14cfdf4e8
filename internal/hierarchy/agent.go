package hierarchy

import (
	"repro/internal/clock"
	"repro/internal/memory"
)

// Agent is one software thread pinned to a core, with its container's
// address space. The attacker's main thread, its helper thread and the
// victim are all Agents of the same Host. Cloud schedulers prevent
// cross-tenant SMT sharing (paper §3), so each Agent gets its own core.
type Agent struct {
	h    *Host
	core int
	as   *memory.AddressSpace
}

// NewAgent creates an agent on the given core with a fresh address space.
func (h *Host) NewAgent(core int) *Agent {
	if core < 0 || core >= len(h.cores) {
		panic("hierarchy: core index out of range")
	}
	return &Agent{h: h, core: core, as: h.NewAddressSpace()}
}

// NewAgentSharing creates an agent on the given core sharing an existing
// address space (e.g. the attacker's helper thread, which shares the main
// thread's mappings).
func (h *Host) NewAgentSharing(core int, as *memory.AddressSpace) *Agent {
	if core < 0 || core >= len(h.cores) {
		panic("hierarchy: core index out of range")
	}
	return &Agent{h: h, core: core, as: as}
}

// Host returns the agent's host.
func (a *Agent) Host() *Host { return a.h }

// Core returns the agent's core number.
func (a *Agent) Core() int { return a.core }

// AddressSpace returns the agent's address space.
func (a *Agent) AddressSpace() *memory.AddressSpace { return a.as }

// Alloc maps a fresh buffer of n pages in the agent's address space.
func (a *Agent) Alloc(pages int) memory.Buffer { return a.as.Alloc(pages) }

// Translate resolves a virtual address (privileged helper for validation
// code; attack logic must not inspect the result's high bits).
func (a *Agent) Translate(va memory.VAddr) memory.PAddr { return a.as.Translate(va) }

// SetOf returns the LLC/SF set this agent's accesses to the virtual
// address resolve to (privileged: used for ground truth only). The
// resolution is domain-aware: under an index-transforming defense the
// attacker's and the victim's agents legitimately map the same physical
// line to different sets.
func (a *Agent) SetOf(va memory.VAddr) SetID {
	return a.h.setFor(domainOf(a.core), a.as.Translate(va))
}

// Access performs one demand load and advances the clock by its jittered
// latency. It returns the latency and the level that served the access.
func (a *Agent) Access(va memory.VAddr) (clock.Cycles, Level) {
	pa := a.as.Translate(va)
	res := a.h.accessState(a.core, pa)
	lat := a.h.latency(res.level)
	a.h.clk.Advance(clock.Cycles(lat))
	return clock.Cycles(lat), res.level
}

// TimedAccess performs one load and returns the latency an attacker would
// measure with a serialize-rdtsc pair: the access latency plus fixed
// measurement overhead, with timer jitter — filtered, when a defense
// quiesces the timing channel, through its measurement hook.
func (a *Agent) TimedAccess(va memory.VAddr) (clock.Cycles, Level) {
	lat, level := a.Access(va)
	measured := float64(lat) + a.h.cfg.Lat.Measure
	a.h.clk.Advance(clock.Cycles(a.h.cfg.Lat.Measure))
	if j := a.h.cfg.TimerJitter; j > 0 {
		measured = a.h.rng.Norm(measured, j)
		if measured < 1 {
			measured = 1
		}
	}
	return clock.Cycles(a.h.observe(measured)), level
}

// AccessSeq performs dependent (pointer-chase) accesses: each access waits
// for the previous one and pays the per-level chain overhead (page walks
// dominate for DRAM-sized candidate sets). It returns the total time.
func (a *Agent) AccessSeq(vas []memory.VAddr) clock.Cycles {
	var total clock.Cycles
	for _, va := range vas {
		pa := a.as.Translate(va)
		res := a.h.accessState(a.core, pa)
		lat := a.h.latency(res.level) + a.h.cfg.Lat.Chain[res.level]
		a.h.clk.Advance(clock.Cycles(lat))
		total += clock.Cycles(lat)
	}
	return total
}

// AccessParallel performs overlapped, independent accesses exploiting
// memory-level parallelism: the batch costs the per-access issue cost,
// plus the maximum base latency, plus a drain cost per additional access
// (paper §4.1: the pattern of Gruss et al. [31]). It returns the total
// time and the number of accesses served beyond the L2 (the "miss count"
// an attacker could infer from the duration). The returned total is the
// attacker's rdtsc-delimited MEASUREMENT of the batch, so a quiescing
// defense filters it; the virtual clock always advances by the true
// duration.
//
// Only the batch's maximum jittered latency is observable, so each
// access draws its jitter uniforms in stream order and the values are
// evaluated at batch end (jitter.go): bit-identical to evaluating every
// draw. Without a defense measurement hook the batch needs only that
// maximum's two truncations, which bounds usually settle with no
// Box–Muller at all (batchFloors); otherwise Box–Muller runs only for
// draws that can be the maximum (batchMax). A repeat of the core's
// previous all-L1-hit batch is replayed by the quiet-batch kernel
// (quiet.go), which commits the same effects or falls back here.
func (a *Agent) AccessParallel(vas []memory.VAddr) (clock.Cycles, int) {
	if len(vas) == 0 {
		return 0, 0
	}
	h := a.h
	l1 := h.cores[a.core].l1
	if h.quiet.matches(a, vas, l1) {
		if t, ok := h.replay(len(vas)); ok {
			return t, 0
		}
	}
	lat := &h.cfg.Lat
	total := lat.Issue * float64(len(vas))
	mark := len(h.jit)
	misses := 0
	ver := l1.Version()
	quiet := true // every access an L1 hit in one LLC/SF set
	var set SetID
	for i, va := range vas {
		pa := a.as.Translate(va)
		res := h.accessState(a.core, pa)
		h.drawJitter(res.level)
		if i > 0 {
			total += lat.Drain[res.level]
		} else {
			set = res.set
		}
		if res.level > L2Hit {
			misses++
		}
		quiet = quiet && res.level == L1Hit && res.set == set
		// Advance the clock incrementally so background noise interleaves
		// with long traversals at the right granularity.
		h.clk.Advance(clock.Cycles(lat.Issue + lat.Drain[res.level]))
	}
	h.record(a, vas, quiet && l1.Version()-ver == uint64(len(vas)), set, total)
	if !h.defHooks.Observe {
		maxC, totalC := h.batchFloors(mark, total)
		h.clk.Advance(maxC)
		return totalC, misses
	}
	maxBase := h.batchMax(mark)
	total += maxBase
	h.clk.Advance(clock.Cycles(maxBase))
	return clock.Cycles(h.observe(total)), misses
}

// LoadShared performs the two-thread access pattern from the paper (§4.2):
// the main thread loads the line (taking it Exclusive, SF-tracked) and a
// helper thread on another core repeats the access, downgrading the line
// to Shared so it is installed in the LLC. The pattern first displaces the
// main thread's private copy so the access transits the LLC even for
// recently touched lines (as the real dual-chase pattern guarantees). The
// helper runs concurrently, so the main thread is charged only a small
// synchronization overhead on top of its own access.
func (a *Agent) LoadShared(helper *Agent, va memory.VAddr) clock.Cycles {
	a.h.dropPrivate(a.core, a.as.Translate(va))
	lat1, _ := a.Access(va)
	pa := helper.as.Translate(va)
	helper.h.accessState(helper.core, pa) // helper's concurrent access
	sync := clock.Cycles(a.h.cfg.Lat.Issue * 2)
	a.h.clk.Advance(sync)
	return lat1 + sync
}

// LoadSharedAll applies LoadShared to each address with overlapped main-
// thread accesses, returning total time. The helper echoes each access
// immediately (it runs concurrently, a fixed short distance behind the
// main thread), so every line transitions E->S and is installed in the
// LLC before the main thread's private copy can be displaced by later
// accesses of the batch. Like AccessParallel, the batch is charged its
// maximum jittered latency from draws taken in stream order; no
// measurement hook filters the result, so only its truncations are
// needed (batchFloors). Each line is one host transition (sharedLoad).
// The helper must share the agent's address space, as a helper thread
// does; LoadSharedAll panics otherwise.
func (a *Agent) LoadSharedAll(helper *Agent, vas []memory.VAddr) clock.Cycles {
	if len(vas) == 0 {
		return 0
	}
	if helper.as != a.as {
		panic("hierarchy: LoadSharedAll helper does not share the agent's address space")
	}
	lat := &a.h.cfg.Lat
	total := 0.0
	mark := len(a.h.jit)
	for i, va := range vas {
		level := a.h.sharedLoad(a.core, helper.core, a.as.Translate(va))
		a.h.drawJitter(level)
		step := lat.Issue * 2 // main issue + helper sync
		if i > 0 {
			step += lat.Drain[level]
		}
		total += step
		a.h.clk.Advance(clock.Cycles(step))
	}
	maxC, totalC := a.h.batchFloors(mark, total)
	a.h.clk.Advance(maxC)
	return totalC
}

// DropL1 discards the agent's L1 copy of the line at no time cost,
// modelling a pattern step that forces the next touch to reach the L2.
func (a *Agent) DropL1(va memory.VAddr) { a.h.dropL1(a.core, a.as.Translate(va)) }

// EvictPrivateQuiet displaces the line from the agent's own L1 and L2 at
// no time cost — the displacement is a side effect of an access pattern
// whose cost is charged by the batch model (see dropPrivate).
func (a *Agent) EvictPrivateQuiet(va memory.VAddr) {
	a.h.dropPrivate(a.core, a.as.Translate(va))
}

// AccessSeqNoChain performs dependent accesses over a small, TLB-warm
// working set: each access pays its base latency serially but no
// page-walk chain overhead. Prime+Scope's flush-reload and alternating
// pointer-chase prime patterns operate in this regime.
func (a *Agent) AccessSeqNoChain(vas []memory.VAddr) clock.Cycles {
	var total clock.Cycles
	for _, va := range vas {
		pa := a.as.Translate(va)
		res := a.h.accessState(a.core, pa)
		lat := a.h.latency(res.level) + a.h.cfg.Lat.Issue
		a.h.clk.Advance(clock.Cycles(lat))
		total += clock.Cycles(lat)
	}
	return total
}

// FlushAll clflushes each address, returning total time.
func (a *Agent) FlushAll(vas []memory.VAddr) clock.Cycles {
	var total clock.Cycles
	for _, va := range vas {
		total += a.Flush(va)
	}
	return total
}

// Flush models clflush: the line is evicted from the entire hierarchy.
func (a *Agent) Flush(va memory.VAddr) clock.Cycles {
	pa := a.as.Translate(va)
	a.h.flushLine(a.core, pa)
	c := clock.Cycles(a.h.cfg.Lat.Flush)
	a.h.clk.Advance(c)
	return c
}

// EvictPrivate displaces the line from this agent's own L1 and L2 without
// disturbing the LLC or SF. Real attack code achieves this by touching
// conflicting lines it already owns (after L2-candidate filtering, every
// candidate is L2-congruent with the target, so traversal displaces the
// private copy as a side effect); modelling it as a primitive keeps
// TestEviction implementations readable. The small cost models the
// conflicting accesses.
func (a *Agent) EvictPrivate(va memory.VAddr) clock.Cycles {
	pa := a.as.Translate(va)
	tag := toTag(pa)
	c := &a.h.cores[a.core]
	c.l1.Remove(a.h.l1Index(pa), tag)
	c.l2.Remove(a.h.l2Index(pa), tag)
	cost := clock.Cycles(a.h.cfg.Lat.Base[L2Hit] * 4)
	a.h.clk.Advance(cost)
	return cost
}

// Idle advances the agent's view of time without touching the hierarchy
// (a spin-wait).
func (a *Agent) Idle(d clock.Cycles) {
	a.h.clk.Advance(d)
	a.h.drainScheduled()
}

// Now returns the jittered current timestamp as the attacker reads it.
func (a *Agent) Now() clock.Cycles { return a.h.clk.Read() }
