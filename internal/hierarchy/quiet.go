package hierarchy

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
)

// Quiet batches.
//
// Parallel Probing re-issues one batch of eviction-set lines on one
// core, and nearly every probe finds all of them in the L1 while
// nothing else happens: no background access lands on their set and
// no scheduled event falls due. Such a batch changes only the host rng,
// the set's sync time, the access count and the clock. Its
// translations, set hashes, tag scans and LRU shifts recompute results
// that are already known, so the host replays it from a memo instead.
//
// Record. After a general-path AccessParallel batch in which every
// access hit the core's L1, every line resolved to one LLC/SF set and
// the L1's Version advanced by exactly the batch's own touches, the
// host memoizes the core, the address space, the addresses, the set,
// the batch's partial total and the L1 Version. Only a quiet host
// records (quietHost): jitter on, every tenant memoryless, and no
// defense Tick, Index or Observe hook. Any other batch clears the memo.
//
// Replay. A batch matching the memo (same core, address space and
// addresses; L1 Version unchanged) is walked on local copies of the
// clock, the set's sync time and the rng (an xrand.Gen), making per
// access the draws the general path makes, in its order: each tenant's
// first Poisson uniform over the sync window, then the two jitter
// uniforms. It aborts, having written nothing, as soon as a tenant's
// draw is not settled at zero by Poisson's first test or a scheduled
// event is due; the general path then runs the batch from the untouched
// state. Otherwise it commits the whole walk at once.
//
// Skipping the L1 touches is exact. NewHost builds every L1 as true
// LRU, and moving one sequence of lines to the front twice leaves the
// order that doing it once leaves: the sequence's lines lead, in order
// of last use, and the other ways keep their relative order. The
// unchanged Version proves the L1 holds the order the recorded batch's
// touches left, which the replayed touches would reproduce. The kernel
// makes none, so the Version stays put and the next probe matches too.
// The record-time Version check is what makes this hold: an event or a
// back-invalidation on the probing core inside the batch leaves an
// order (or a missing line) the touch sequence alone does not give.

// quietMemo is the batch the next AccessParallel may replay.
type quietMemo struct {
	as    *memory.AddressSpace // nil when there is no memo
	core  int
	vas   []memory.VAddr // a copy; the buffer is reused
	slot  int            // the lines' LLC/SF set, as a lastSync index
	total float64        // the batch's total before its max latency
	l1Ver uint64         // the core's L1 Version after the batch
}

// quietHost reports whether a host built from cfg may replay quiet
// batches: a batch's only per-access work must be the tenants' Poisson
// draws (memoryless tenants), the jitter draw (JitterFrac > 0, so the
// batch bound exists) and the touches, with no defense hook run per
// access or per measurement.
func quietHost(cfg Config, hooks defense.Hooks, tenants []tenantState) bool {
	if cfg.Lat.JitterFrac <= 0 || hooks.Tick || hooks.Index || hooks.Observe {
		return false
	}
	for _, t := range tenants {
		if !t.memoryless {
			return false
		}
	}
	return true
}

// matches reports whether the core's next batch vas is the memo's,
// against an unchanged L1.
func (m *quietMemo) matches(a *Agent, vas []memory.VAddr, l1 *cache.Cache) bool {
	return m.as == a.as && m.core == a.core && m.l1Ver == l1.Version() && slices.Equal(m.vas, vas)
}

// record memoizes the general-path batch a just ran, when quiet says
// it qualifies (every access an L1 hit in one set, the L1 changed only
// by the batch's touches), and clears the memo otherwise.
func (h *Host) record(a *Agent, vas []memory.VAddr, quiet bool, set SetID, total float64) {
	m := &h.quiet
	m.as = nil
	if !quiet || !h.quietHost {
		return
	}
	m.as, m.core, m.total = a.as, a.core, total
	m.vas = append(m.vas[:0], vas...)
	m.slot = set.Slice*h.cfg.LLCSets + set.Index
	m.l1Ver = h.cores[a.core].l1.Version()
}

// replay runs an n-access batch that matches the memo (see above). It
// returns the batch's measured total and true when it committed, and
// false, having changed nothing, when the general path must run it.
func (h *Host) replay(n int) (clock.Cycles, bool) {
	lat := &h.cfg.Lat
	m := &h.quiet
	now, last := h.clk.Now(), h.lastSync[m.slot]
	step := clock.Cycles(lat.Issue + lat.Drain[L1Hit])
	pending := len(h.sched.events) != 0
	var due clock.Cycles
	if pending {
		due = h.sched.events[0].Time
	}
	g := h.rng.Gen()
	// The draws go to the scratch buffer's spare capacity; its length
	// moves only on a commit, for batchFloors.
	mark := len(h.jit)
	h.jit = slices.Grow(h.jit, n)
	jit := h.jit[mark : mark+n]
	for i := range jit {
		if now > last {
			// syncNoise's window, each tenant's count settled at zero.
			window := float64(now - last)
			last = now
			for j := range h.tenants {
				var zero bool
				if zero, g = g.PoissonZero(window * h.tenants[j].perCycle); !zero {
					return 0, false
				}
			}
		}
		if pending && due <= now {
			return 0, false
		}
		k1, k2, g2 := g.NormDraw()
		g = g2
		jit[i] = jitterDraw{level: L1Hit, k1: k1, k2: k2}
		now += step
	}
	h.rng.SetGen(g)
	h.lastSync[m.slot] = last
	h.Accesses += uint64(n)
	h.clk.Advance(clock.Cycles(n) * step)
	h.jit = h.jit[:mark+n]
	maxC, totalC := h.batchFloors(mark, m.total)
	h.clk.Advance(maxC)
	return totalC, true
}
