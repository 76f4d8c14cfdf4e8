package hierarchy

import (
	"math"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/xrand"
)

// Deferred batch maxima of jittered latencies.
//
// An overlapped batch (AccessParallel, LoadSharedAll) is timed by its
// slowest access, so only the largest jittered latency of the batch is
// observable. Each access still consumes its two Box–Muller uniforms
// at its own point in the host rng stream (xrand.NormDraw), so the
// stream, and with it every later draw, is untouched. The values are
// evaluated at batch end: first the draw with the largest upper bound,
// then only the draws whose bound exceeds the running exact maximum. A
// skipped draw is provably no larger than that maximum, so the result
// is bit for bit the per-access running max.

// jitterDraw is one access's deferred latency draw: the level that
// served it, its raw uniforms (xrand.NormDraw) and, at batch end, an
// upper bound on its jittered latency.
type jitterDraw struct {
	level  Level
	k1, k2 uint64
	hi     float64
}

// minBoundBits is the shortest k1 (in bits) the sqrt(-2 ln u1) table
// covers; shorter draws, k1 = 0 and its 1e-300 clamp included, get an
// infinite bound and are always evaluated. They occur with probability
// 2^-49 per draw.
const minBoundBits = 5

// Bound margins. The bound tables are padded by tablePad to cover the
// few-ulp error of math.Log, math.Sqrt, math.Cos and 2π·u2 inside a
// bucket; the value bound adds a relative and an absolute margin, orders
// of magnitude above the rounding of base + base·jf·z.
const (
	tablePad = 1e-12
	boundRel = 1e-9
	boundAbs = 1e-9
)

// sqrtLogHi[b][m] and sqrtLogLo[b][m] bound sqrt(-2 ln u1) over every
// k1 of bit length b whose 4 bits below the leading one are m. The
// function decreases in u1, so the bucket's smallest k1, (16+m)<<(b-5),
// attains the upper bound and its largest, (17+m)<<(b-5)-1, the lower.
// cosHi[j] bounds max(cos(2π u2), 0) from above and cosLo[j] bounds
// cos(2π u2) from below over every k2 with k2>>45 == j: cos decreases
// on [0, ½] and increases on [½, 1), so below bucket 128 the left edge
// attains the maximum and the right edge the minimum, and from 128 on
// the other way round.
var (
	sqrtLogHi, sqrtLogLo [54][16]float64
	cosHi, cosLo         [256]float64
)

func init() {
	for b := minBoundBits; b < len(sqrtLogHi); b++ {
		for m := range sqrtLogHi[b] {
			k1 := uint64(16+m) << (b - minBoundBits)
			sqrtLogHi[b][m] = sqrtLogAt(k1) * (1 + tablePad)
			sqrtLogLo[b][m] = sqrtLogAt(uint64(17+m)<<(b-minBoundBits)-1) * (1 - tablePad)
		}
	}
	for j := range cosHi {
		left, right := uint64(j)<<45, uint64(j+1)<<45-1
		if j >= len(cosHi)/2 {
			left, right = right, left
		}
		cosHi[j] = math.Max(cosAt(left), 0) + tablePad
		cosLo[j] = cosAt(right) - tablePad
	}
}

// sqrtLogAt and cosAt are Box–Muller's two factors at one raw uniform,
// computed as xrand.NormAt computes them (sqrtLogAt(k1)·cosAt(k2) is
// NormAt(k1, k2, 0, 1)). They build and check the bound tables only.
func sqrtLogAt(k1 uint64) float64 { return xrand.NormAt(k1, 0, 0, 1) }

func cosAt(k2 uint64) float64 { return math.Cos(2 * math.Pi * (float64(k2) / (1 << 53))) }

// jittered is the latency of a level-l access whose jitter draw is
// (k1, k2): a Gaussian around the level's base latency with sigma
// base·JitterFrac, clamped to at least one cycle.
func (lat *Latencies) jittered(l Level, k1, k2 uint64) float64 {
	base := lat.Base[l]
	v := xrand.NormAt(k1, k2, base, base*lat.JitterFrac)
	if v < 1 {
		v = 1
	}
	return v
}

// jitterBound returns an upper bound on lat.jittered(d.level, d.k1,
// d.k2) from the bound tables, without Log, Sqrt or Cos. It needs
// JitterFrac > 0 and a non-negative base (Config.Validate).
func (lat *Latencies) jitterBound(d jitterDraw) float64 {
	b := bits.Len64(d.k1)
	if b < minBoundBits {
		return math.Inf(1)
	}
	z := sqrtLogHi[b][(d.k1>>(b-minBoundBits))&15] * cosHi[d.k2>>45]
	hi := lat.Base[d.level]*(1+lat.JitterFrac*z)*(1+boundRel) + boundAbs
	if hi < 1 {
		hi = 1
	}
	return hi
}

// maxJittered returns the largest jittered latency of a batch's draws,
// bit-identical to a running max (from 0) over lat.jittered of each
// draw in order, and 0 for an empty batch. With JitterFrac 0 nothing
// was drawn and the batch max is the largest base latency. It fills
// each draw's hi field.
func (lat *Latencies) maxJittered(ds []jitterDraw) float64 {
	if lat.JitterFrac <= 0 {
		maxV := 0.0
		for _, d := range ds {
			if b := lat.Base[d.level]; b > maxV {
				maxV = b
			}
		}
		return maxV
	}
	if len(ds) == 0 {
		return 0
	}
	top := 0
	for i := range ds {
		ds[i].hi = lat.jitterBound(ds[i])
		if ds[i].hi > ds[top].hi {
			top = i
		}
	}
	// Jittered values are at least 1, so the first one is the max so far.
	maxV := lat.jittered(ds[top].level, ds[top].k1, ds[top].k2)
	for i, d := range ds {
		if i == top || d.hi <= maxV {
			continue
		}
		if v := lat.jittered(d.level, d.k1, d.k2); v > maxV {
			maxV = v
		}
	}
	return maxV
}

// maxRange bounds the largest jittered latency of a batch's draws:
// lo <= maxJittered(ds) <= hi. hi is the largest of the draws' upper
// bounds, latency base + sigma·z at z's bound from the tables. Any one
// draw's lower bound is also a lower bound on the max, so lo is taken
// from the draw most likely to be the max: the one with the largest
// upper bound. The rounding margins are applied once, at the end; they
// are increasing functions, so the margined max is the max of the
// margined values. ok is false when it cannot bound the batch:
// JitterFrac 0 (nothing was drawn), an empty batch, a k1 below the
// tables, or bounds that are not finite.
func (lat *Latencies) maxRange(ds []jitterDraw) (lo, hi float64, ok bool) {
	jf := lat.JitterFrac
	if jf <= 0 || len(ds) == 0 {
		return 0, 0, false
	}
	hi, top := math.Inf(-1), 0
	for i, d := range ds {
		b := bits.Len64(d.k1)
		if b < minBoundBits {
			return 0, 0, false
		}
		// z's upper bound is positive, so v is never NaN.
		base := lat.Base[d.level]
		if v := base + base*jf*(sqrtLogHi[b][(d.k1>>(b-minBoundBits))&15]*cosHi[d.k2>>45]); v > hi {
			hi, top = v, i
		}
	}
	d := ds[top]
	b := bits.Len64(d.k1)
	m := (d.k1 >> (b - minBoundBits)) & 15
	// The square-root factor is non-negative, so z's low end is at one
	// of its two bounds times cos's low bound.
	cLo := cosLo[d.k2>>45]
	base := lat.Base[d.level]
	lo = base + base*jf*min(sqrtLogLo[b][m]*cLo, sqrtLogHi[b][m]*cLo)
	lo = max(lo*(1-boundRel)-boundAbs, 1)
	hi = max(hi*(1+boundRel)+boundAbs, 1)
	return lo, hi, lo >= 1 && hi < 1<<53
}

// drawJitter consumes one level-l access's jitter draw, at this point
// in the host rng stream, into the batch scratch buffer (nothing is
// drawn when JitterFrac is 0, as in latency).
func (h *Host) drawJitter(l Level) {
	d := jitterDraw{level: l}
	if h.cfg.Lat.JitterFrac > 0 {
		d.k1, d.k2 = h.rng.NormDraw()
	}
	h.jit = append(h.jit, d)
}

// batchFloors returns clock.Cycles(v) and clock.Cycles(partial+v) for
// the maximum jittered latency v of the draws made since len(h.jit) was
// mark, and drops them. These two truncations are all an unobserved
// batch uses of v. When v's bounds (maxRange) give the same two floors
// at both ends, those are the floors of v itself, because truncation
// and fl(partial + ·) are monotone; no Box–Muller is evaluated. Only
// otherwise does it fall back to the exact batchMax.
func (h *Host) batchFloors(mark int, partial float64) (maxC, totalC clock.Cycles) {
	if lo, hi, ok := h.cfg.Lat.maxRange(h.jit[mark:]); ok {
		maxC, totalC = clock.Cycles(lo), clock.Cycles(partial+lo)
		if maxC == clock.Cycles(hi) && totalC == clock.Cycles(partial+hi) {
			h.jit = h.jit[:mark]
			return maxC, totalC
		}
	}
	v := h.batchMax(mark)
	return clock.Cycles(v), clock.Cycles(partial + v)
}

// batchMax returns the maximum jittered latency of the draws made since
// len(h.jit) was mark, and drops them. The buffer keeps its capacity
// across batches and Resets; marks keep a nested batch (from a
// scheduled-event callback) from clobbering an open one.
func (h *Host) batchMax(mark int) float64 {
	v := h.cfg.Lat.maxJittered(h.jit[mark:])
	h.jit = h.jit[:mark]
	return v
}
