package hierarchy

import (
	"math"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/xrand"
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
// Settling. A committed batch needs only the two floors of its max
// jittered latency v: clock.Cycles(v) and clock.Cycles(total+v). Its
// draws are all at level L1Hit, so for one partial total the host
// derives, once, a floor pair (F, T) and integer thresholds on the raw
// draws (quietSettle) from the bound tables of jitter.go:
//   - every k1 >= k1Hi has an upper bound on its latency, for any k2,
//     whose floors are at most (F, T);
//   - a k1 < k1Lo whose k2 lies in a cos bucket near u2 = 0 or 1 (cos
//     above a positive floor) has a lower bound whose floors are at
//     least (F, T).
// A batch whose every draw has k1 >= k1Hi and one of whose draws
// qualifies below is settled at (F, T): v lies between those two
// bounds and both floors are monotone. The walk makes two integer
// compares per draw and stores nothing. A batch that does not settle
// (under 1% of the monitor's probes) is walked again from the saved
// generator into the scratch buffer and takes batchFloors, so the
// kernel commits exactly the batches, and the floors, it would without
// the thresholds.
//
// Poisson's zero test. After the batch's first access the sync window
// is exactly step cycles, so each tenant's mean, and with it the test
// u <= 1-mean-1e-12, is fixed per host. Since u is k/2^53 for the raw
// draw k, the test is k <= cut (xrand.PoissonZeroCut), computed at
// NewHost. A window of any other length takes Gen.PoissonZero.
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

// quietSettle is the settle rule of replayed batches with one partial
// total (see "Settling" above). A draw (k1, k2) bounds the batch from
// below when k1 < k1Lo and k2-c1 >= cw, which in unsigned arithmetic
// means k2 < c1 or k2 >= c1+cw. With k1Hi = 1<<53 nothing settles.
type quietSettle struct {
	derived      bool    // false until the first replay
	total        float64 // the partial total it was derived for
	k1Hi, k1Lo   uint64
	c1, cw       uint64
	maxC, totalC clock.Cycles // the floor pair (F, T)
}

// qualifies reports whether draw (k1, k2) bounds a batch from below at
// the floor pair.
func (r *quietSettle) qualifies(k1, k2 uint64) bool { return k1 < r.k1Lo && k2-r.c1 >= r.cw }

// stepCuts is Poisson's zero test over a step-cycle window for each
// tenant that draws (see "Poisson's zero test" above).
type stepCuts struct {
	cuts  []uint64 // one per tenant with a positive mean, in order
	abort bool     // some tenant's mean cannot settle at zero
}

// newStepCuts derives the cuts for the host's tenants and step.
func newStepCuts(tenants []tenantState, step clock.Cycles) stepCuts {
	var s stepCuts
	for _, t := range tenants {
		mean := float64(step) * t.perCycle
		if mean <= 0 {
			continue
		}
		cut, ok := xrand.PoissonZeroCut(mean)
		s.abort = s.abort || !ok
		s.cuts = append(s.cuts, cut)
	}
	return s
}

// settleBuckets is the number of sqrt(-2 ln u1) buckets: 16 per k1 bit
// length from minBoundBits to 53, in increasing order of k1.
const settleBuckets = (len(sqrtLogHi) - minBoundBits) * 16

// settleHi[i] is the largest sqrtLogHi over buckets i and above, and
// settleLo[i] the smallest sqrtLogLo over buckets i and below, so both
// are monotone whatever the rounding of the tables. cosHiMax is the
// largest cosHi.
var (
	settleHi, settleLo [settleBuckets]float64
	cosHiMax           float64
)

func init() {
	for i := settleBuckets - 1; i >= 0; i-- {
		settleHi[i] = sqrtLogHi[i/16+minBoundBits][i%16]
		if i+1 < settleBuckets {
			settleHi[i] = max(settleHi[i], settleHi[i+1])
		}
	}
	for i := range settleLo {
		settleLo[i] = sqrtLogLo[i/16+minBoundBits][i%16]
		if i > 0 {
			settleLo[i] = min(settleLo[i], settleLo[i-1])
		}
	}
	for _, c := range cosHi {
		cosHiMax = max(cosHiMax, c)
	}
}

// bucketStart is the smallest k1 of bucket i, and 1<<53 for i =
// settleBuckets.
func bucketStart(i int) uint64 { return uint64(16+i%16) << (i / 16) }

// settleRule derives the settle rule of L1Hit batches with the given
// partial total. The floor pair is the one of the latency at z = 1,
// about the median max of a handful of draws. The upper threshold is
// the first bucket from which the margined upper bound of jitterBound,
// taken at cosHiMax, keeps floors at most (F, T). For each symmetric
// pair of cos bucket ranges [0, j1) and [256-j1, 256) with a
// non-negative cosLo, the lower threshold is the first bucket whose
// margined lower bound (maxRange's, at the ranges' smallest cosLo)
// drops a floor below (F, T); the pair that lets the most draws qualify
// wins. Floors are taken only in [0, 2^53), where they are exact.
func (lat *Latencies) settleRule(partial float64) quietSettle {
	r := quietSettle{derived: true, total: partial, k1Hi: 1 << 53}
	base, jf := lat.Base[L1Hit], lat.JitterFrac
	if !(jf > 0 && partial >= 0) {
		return r
	}
	floors := func(v float64) (clock.Cycles, clock.Cycles, bool) {
		t := partial + v
		return clock.Cycles(v), clock.Cycles(t), v >= 1 && t < 1<<53
	}
	maxC, totalC, ok := floors(max(base+base*jf*1, 1))
	if !ok {
		return r
	}
	hi := sort.Search(settleBuckets, func(i int) bool {
		f, t, ok := floors(max((base+base*jf*(settleHi[i]*cosHiMax))*(1+boundRel)+boundAbs, 1))
		return ok && f <= maxC && t <= totalC
	})
	if hi == settleBuckets {
		return r
	}
	k1Hi := bucketStart(hi)
	var best, k1Lo, j uint64
	cMin := math.Inf(1)
	for j1 := 1; j1 < len(cosLo)/2; j1++ {
		if cMin = min(cMin, cosLo[j1-1], cosLo[len(cosLo)-j1]); cMin < 0 {
			break
		}
		// A bound past 2^53 is above the floor pair's latency.
		lo := sort.Search(settleBuckets, func(i int) bool {
			f, t, ok := floors(max((base+base*jf*(settleLo[i]*cMin))*(1-boundRel)-boundAbs, 1))
			return ok && (f < maxC || t < totalC)
		})
		if start := bucketStart(lo); start > k1Hi && (start-k1Hi)*uint64(j1) > best {
			best, k1Lo, j = (start-k1Hi)*uint64(j1), start, uint64(j1)
		}
	}
	if best == 0 {
		return r
	}
	r.k1Hi, r.k1Lo = k1Hi, k1Lo
	r.c1, r.cw = j<<45, uint64(len(cosLo)-2*int(j))<<45
	r.maxC, r.totalC = maxC, totalC
	return r
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
	m := &h.quiet
	if r := &h.settle; !r.derived || r.total != m.total {
		*r = h.cfg.Lat.settleRule(m.total)
	}
	g0 := h.rng.Gen()
	g, last, settled, ok := h.quietWalk(g0, n, nil)
	if !ok {
		return 0, false
	}
	maxC, totalC := h.settle.maxC, h.settle.totalC
	if !settled {
		mark := len(h.jit)
		h.jit = slices.Grow(h.jit, n)[:mark+n]
		h.quietWalk(g0, n, h.jit[mark:])
		maxC, totalC = h.batchFloors(mark, m.total)
	}
	step := clock.Cycles(h.cfg.Lat.Issue + h.cfg.Lat.Drain[L1Hit])
	h.rng.SetGen(g)
	h.lastSync[m.slot] = last
	h.Accesses += uint64(n)
	h.clk.Advance(clock.Cycles(n)*step + maxC)
	return totalC, true
}

// quietWalk walks a replayed batch's n accesses from generator g on
// local copies of the clock and the set's sync time (see "Replay"). It
// returns the advanced generator and sync time, whether the settle rule
// settles the batch, and false when the batch must abort. With a
// non-nil jit (length n) it also stores each access's jitter draw.
func (h *Host) quietWalk(g xrand.Gen, n int, jit []jitterDraw) (_ xrand.Gen, last clock.Cycles, settled, ok bool) {
	lat, r, sc := &h.cfg.Lat, &h.settle, &h.stepCuts
	now, last := h.clk.Now(), h.lastSync[h.quiet.slot]
	step := clock.Cycles(lat.Issue + lat.Drain[L1Hit])
	pending := len(h.sched.events) != 0
	var due clock.Cycles
	if pending {
		due = h.sched.events[0].Time
	}
	minK1, qualified := uint64(1)<<53, false
	for i := 0; i < n; i++ {
		if now > last {
			if now-last == step {
				if sc.abort {
					return g, 0, false, false
				}
				for _, cut := range sc.cuts {
					var k uint64
					if k, g = g.Uint53(); k > cut {
						return g, 0, false, false
					}
				}
			} else {
				// syncNoise's window, each tenant's count settled at zero.
				window := float64(now - last)
				for j := range h.tenants {
					var zero bool
					if zero, g = g.PoissonZero(window * h.tenants[j].perCycle); !zero {
						return g, 0, false, false
					}
				}
			}
			last = now
		}
		if pending && due <= now {
			return g, 0, false, false
		}
		// Gen.NormDraw's two raw uniforms, as two Uint53 draws, which
		// inline.
		var k1, k2 uint64
		k1, g = g.Uint53()
		k2, g = g.Uint53()
		minK1 = min(minK1, k1)
		qualified = qualified || r.qualifies(k1, k2)
		if jit != nil {
			jit[i] = jitterDraw{level: L1Hit, k1: k1, k2: k2}
		}
		now += step
	}
	return g, last, minK1 >= r.k1Hi && qualified, true
}
