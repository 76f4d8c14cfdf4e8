package hierarchy

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"repro/internal/clock"
	"repro/internal/xrand"
)

// exactBatchMax is the per-access loop AccessParallel and LoadSharedAll
// ran before their jitter was deferred, verbatim: every access's
// latency is drawn and evaluated in order into a running max from 0.
func exactBatchMax(lat Latencies, rng *xrand.Rand, levels []Level) float64 {
	maxBase := 0.0
	for _, l := range levels {
		base := lat.Base[l]
		if lat.JitterFrac > 0 {
			base = rng.Norm(base, base*lat.JitterFrac)
			if base < 1 {
				base = 1
			}
		}
		if base > maxBase {
			maxBase = base
		}
	}
	return maxBase
}

// checkBatchMaxMatchesExact runs n random batches through a host's
// deferred path (drawJitter, then batchMax or batchFloors) and through
// exactBatchMax on a twin rng, requiring the same maxBase bits, or the
// same two floors for a random partial sum, and the same next rng draw
// after every batch. The bounds of maxRange must hold on every batch.
// Batch sizes are 1–64 and 767, the largest batch the attack issues;
// levels are uniform, or one level per batch.
func checkBatchMaxMatchesExact(t *testing.T, n int, seed uint64) {
	t.Helper()
	gen := xrand.New(seed)
	levels := make([]Level, 0, 767)
	for _, jf := range []float64{0, 0.06, 0.5, 0.9} {
		lat := DefaultLatencies()
		lat.JitterFrac = jf
		h := &Host{cfg: Config{Lat: lat}, rng: xrand.New(seed ^ 0x5eed)}
		ref := xrand.New(seed ^ 0x5eed)
		for b := 0; b < n/4; b++ {
			size := 1 + gen.Intn(65)
			if size == 65 {
				size = 767
			}
			levels = levels[:0]
			one := Level(gen.Intn(5))
			mixed := gen.Bool()
			for i := 0; i < size; i++ {
				l := one
				if mixed {
					l = Level(gen.Intn(5))
				}
				levels = append(levels, l)
			}
			want := exactBatchMax(lat, ref, levels)
			mark := len(h.jit)
			for _, l := range levels {
				h.drawJitter(l)
			}
			if lo, hi, ok := lat.maxRange(h.jit[mark:]); ok && !(lo <= want && want <= hi) {
				t.Fatalf("jf %g batch %d (%d accesses): exact max %v outside its range [%v, %v]", jf, b, size, want, lo, hi)
			}
			if b%2 == 1 {
				partial := float64(gen.Intn(20000)) + float64(gen.Intn(4))/4
				gotMax, gotTotal := h.batchFloors(mark, partial)
				if gotMax != clock.Cycles(want) || gotTotal != clock.Cycles(partial+want) {
					t.Fatalf("jf %g batch %d (%d accesses): floors (%d, %d) of max + %v, exact (%d, %d)",
						jf, b, size, gotMax, gotTotal, partial, clock.Cycles(want), clock.Cycles(partial+want))
				}
			} else if got := h.batchMax(mark); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("jf %g batch %d (%d accesses): deferred max %v, exact %v", jf, b, size, got, want)
			}
			if len(h.jit) != mark {
				t.Fatalf("jf %g batch %d: batchMax left %d draws in the buffer", jf, b, len(h.jit)-mark)
			}
			if h.rng.Uint64() != ref.Uint64() {
				t.Fatalf("jf %g batch %d: rng streams diverged", jf, b)
			}
		}
	}
}

// TestBatchMaxMatchesExact is the exactness oracle for the deferred
// batch max over 10^6 random batches.
func TestBatchMaxMatchesExact(t *testing.T) {
	checkBatchMaxMatchesExact(t, 1_000_000, 1)
}

// TestJitterBoundTablesSound checks that every bucket's upper (lower)
// table entry is at least (at most) the float-evaluated factor at both
// extreme draws of the bucket, and that the joint bounds hold on random
// draws.
func TestJitterBoundTablesSound(t *testing.T) {
	for b := minBoundBits; b < len(sqrtLogHi); b++ {
		for m := range sqrtLogHi[b] {
			lo := uint64(16+m) << (b - minBoundBits)
			hi := uint64(17+m)<<(b-minBoundBits) - 1
			for _, k1 := range []uint64{lo, hi} {
				if bits.Len64(k1) != b || (k1>>(b-minBoundBits))&15 != uint64(m) {
					t.Fatalf("k1 %#x is not in bucket [%d][%d]", k1, b, m)
				}
				v := sqrtLogAt(k1)
				if v > sqrtLogHi[b][m] {
					t.Errorf("sqrtLogHi[%d][%d] = %v below sqrt(-2 ln u1) = %v at k1 %#x", b, m, sqrtLogHi[b][m], v, k1)
				}
				if v < sqrtLogLo[b][m] || sqrtLogLo[b][m] <= 0 {
					t.Errorf("sqrtLogLo[%d][%d] = %v not in (0, sqrt(-2 ln u1) = %v] at k1 %#x", b, m, sqrtLogLo[b][m], v, k1)
				}
			}
		}
	}
	for j := range cosHi {
		lo := uint64(j) << 45
		hi := uint64(j+1)<<45 - 1
		for _, k2 := range []uint64{lo, hi} {
			v := cosAt(k2)
			if v > cosHi[j] {
				t.Errorf("cosHi[%d] = %v below cos(2π u2) = %v at k2 %#x", j, cosHi[j], v, k2)
			}
			if v < cosLo[j] {
				t.Errorf("cosLo[%d] = %v above cos(2π u2) = %v at k2 %#x", j, cosLo[j], v, k2)
			}
		}
	}
	rng := xrand.New(3)
	for i := 0; i < 200_000; i++ {
		k1, k2 := rng.NormDraw()
		b := bits.Len64(k1)
		if b < minBoundBits {
			continue
		}
		m := (k1 >> (b - minBoundBits)) & 15
		zHi := sqrtLogHi[b][m] * cosHi[k2>>45]
		zLo := min(sqrtLogLo[b][m]*cosLo[k2>>45], sqrtLogHi[b][m]*cosLo[k2>>45])
		if z := xrand.NormAt(k1, k2, 0, 1); z > zHi || z < zLo {
			t.Fatalf("draw (%#x, %#x): z %v outside its bounds [%v, %v]", k1, k2, z, zLo, zHi)
		}
	}
}

// TestBatchFloorsSettleRate pins the mechanism batchFloors exists for:
// at the shipped jitter, the monitor's probe — a batch of 8 L1 hits —
// almost always has both floors settled by the bounds alone, with no
// Box–Muller evaluated.
func TestBatchFloorsSettleRate(t *testing.T) {
	lat := DefaultLatencies()
	rng := xrand.New(8)
	ds := make([]jitterDraw, 8)
	const batches = 100_000
	partial := lat.Issue*8 + lat.Drain[L1Hit]*7
	settled := 0
	for i := 0; i < batches; i++ {
		for j := range ds {
			ds[j].k1, ds[j].k2 = rng.NormDraw()
		}
		lo, hi, ok := lat.maxRange(ds)
		if ok && clock.Cycles(lo) == clock.Cycles(hi) && clock.Cycles(partial+lo) == clock.Cycles(partial+hi) {
			settled++
		}
	}
	if rate := float64(settled) / batches; rate < 0.95 {
		t.Fatalf("%d of %d 8×L1 batches settled (%.4f), want at least 95%%", settled, batches, rate)
	} else {
		t.Logf("%d of %d 8×L1 batches settled (%.4f)", settled, batches, rate)
	}
}

// fuzzBases and fuzzJitterFracs are the latency configs a fuzz input
// selects from: the shipped bases, a zero, fractional and huge mix,
// equal bases (value ties across levels) and a small ladder; jitter
// from none through the v < 1 clamp regime to absurdly wide.
var (
	fuzzBases = [][5]float64{
		DefaultLatencies().Base,
		{0, 0.25, 1, 1.5, 1e6},
		{4, 4, 4, 4, 4},
		{1, 2, 3, 5, 8},
	}
	fuzzJitterFracs = []float64{0, 0.06, 0.5, 0.9, 3, 1e-12, 1e6}
)

// jitterTupleLen is one encoded draw: a level byte, then k1 and k2 as
// little-endian uint64s masked to the 53 bits NormDraw yields.
const jitterTupleLen = 17

// decodeJitterInput turns fuzz bytes into a latency config and a batch
// of raw draws. Byte 0 selects the bases (low nibble) and the jitter
// fraction (high nibble); the rest is jitterTupleLen-byte draws.
func decodeJitterInput(data []byte) (Latencies, []jitterDraw, bool) {
	if len(data) < 1+jitterTupleLen {
		return Latencies{}, nil, false
	}
	lat := DefaultLatencies()
	lat.Base = fuzzBases[int(data[0]&15)%len(fuzzBases)]
	lat.JitterFrac = fuzzJitterFracs[int(data[0]>>4)%len(fuzzJitterFracs)]
	const mask = 1<<53 - 1
	var ds []jitterDraw
	for p := data[1:]; len(p) >= jitterTupleLen && len(ds) < 2048; p = p[jitterTupleLen:] {
		ds = append(ds, jitterDraw{
			level: Level(p[0] % 5),
			k1:    binary.LittleEndian.Uint64(p[1:9]) & mask,
			k2:    binary.LittleEndian.Uint64(p[9:17]) & mask,
		})
	}
	return lat, ds, true
}

// FuzzJitterMaxMatchesExact licenses the deferred batch max and the
// settled floors on raw draws, so adversarial uniforms reach them
// directly: k1 = 0 and other k1 below the table, k2 on every cos bucket
// edge, duplicated draws and mixed base configs (seed corpus in
// testdata/fuzz/). The batch max must equal the verbatim running max
// bit for bit, every bound it used must hold for its draw, the batch's
// range (maxRange) must contain the max, and settled floors must be the
// max's own for each of a few partial sums.
func FuzzJitterMaxMatchesExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lat, ds, ok := decodeJitterInput(data)
		if !ok {
			return
		}
		want := 0.0
		for _, d := range ds {
			base := lat.Base[d.level]
			if lat.JitterFrac > 0 {
				base = xrand.NormAt(d.k1, d.k2, base, base*lat.JitterFrac)
				if base < 1 {
					base = 1
				}
			}
			if base > want {
				want = base
			}
		}
		if lo, hi, ok := lat.maxRange(ds); ok {
			if !(lo <= want && want <= hi) {
				t.Fatalf("bases %v jf %g: exact max %v outside its range [%v, %v]", lat.Base, lat.JitterFrac, want, lo, hi)
			}
			for _, partial := range []float64{0, 23, 0.5, 1e6 + 0.25} {
				if clock.Cycles(lo) == clock.Cycles(hi) && clock.Cycles(partial+lo) == clock.Cycles(partial+hi) &&
					(clock.Cycles(lo) != clock.Cycles(want) || clock.Cycles(partial+lo) != clock.Cycles(partial+want)) {
					t.Fatalf("bases %v jf %g partial %v: settled floors of [%v, %v] differ from those of the exact max %v",
						lat.Base, lat.JitterFrac, partial, lo, hi, want)
				}
			}
		}
		got := lat.maxJittered(ds)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bases %v jf %g: deferred max %v, exact %v", lat.Base, lat.JitterFrac, got, want)
		}
		if lat.JitterFrac <= 0 {
			return
		}
		for i, d := range ds {
			if v := lat.jittered(d.level, d.k1, d.k2); !(v <= d.hi) {
				t.Fatalf("bases %v jf %g draw %d (%+v): value %v above its bound", lat.Base, lat.JitterFrac, i, d, v)
			}
		}
	})
}
