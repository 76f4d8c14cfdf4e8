package model

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/xrand"
)

// pair is one optimized cache plus its reference model, built from the
// same config and identically seeded rngs so randomized victim draws
// stay in lockstep.
type pair struct {
	fast *cache.Cache
	ref  *Cache
}

func newPair(cfg cache.Config, seed uint64) pair {
	return pair{
		fast: cache.New(cfg, xrand.New(seed)),
		ref:  New(cfg, xrand.New(seed)),
	}
}

// step applies one scripted operation to both implementations and fails
// the test on any observable divergence. The opcode space deliberately
// covers every public mutation plus the read-only probes, so a fuzzed
// script exercises arbitrary interleavings.
func (p pair) step(t *testing.T, cfg cache.Config, op, a, b byte) {
	t.Helper()
	set := int(a) % cfg.Sets
	tag := scriptTags[int(b)%tagSpace(cfg.Ways)]
	payload := uint16(a)<<8 | uint16(b)
	region := -1
	if cfg.PartitionAt > 0 {
		region = int(op>>4) & 1
	}
	switch op % 7 {
	case 0, 1: // weighted toward the hot ops
		fp, fh := p.fast.Lookup(set, tag)
		rp, rh := p.ref.Lookup(set, tag)
		if fp != rp || fh != rh {
			t.Fatalf("Lookup(%d, %d) = (%d,%v) fast vs (%d,%v) model", set, tag, fp, fh, rp, rh)
		}
	case 2, 3:
		fe := p.fast.InsertRegion(region, set, tag, payload)
		re := p.ref.InsertRegion(region, set, tag, payload)
		if fe != re {
			t.Fatalf("InsertRegion(%d, %d, %d) evicted %+v fast vs %+v model", region, set, tag, fe, re)
		}
	case 4:
		fp, fr := p.fast.Remove(set, tag)
		rp, rr := p.ref.Remove(set, tag)
		if fp != rp || fr != rr {
			t.Fatalf("Remove(%d, %d) = (%d,%v) fast vs (%d,%v) model", set, tag, fp, fr, rp, rr)
		}
	case 5:
		fu := p.fast.UpdatePayload(set, tag, payload)
		ru := p.ref.UpdatePayload(set, tag, payload)
		if fu != ru {
			t.Fatalf("UpdatePayload(%d, %d) = %v fast vs %v model", set, tag, fu, ru)
		}
	case 6:
		p.fast.FlushSet(set)
		p.ref.FlushSet(set)
	}
	// After every op the observable state must agree.
	if fc, rc := p.fast.Contains(set, tag), p.ref.Contains(set, tag); fc != rc {
		t.Fatalf("Contains(%d, %d) = %v fast vs %v model", set, tag, fc, rc)
	}
	fp, fk := p.fast.Peek(set, tag)
	if rp, rk := p.ref.Peek(set, tag); fp != rp || fk != rk {
		t.Fatalf("Peek(%d, %d) = (%d,%v) fast vs (%d,%v) model", set, tag, fp, fk, rp, rk)
	}
	if fo, ro := p.fast.OccupiedWays(set), p.ref.OccupiedWays(set); fo != ro {
		t.Fatalf("OccupiedWays(%d) = %d fast vs %d model", set, fo, ro)
	}
	ft, rt := p.fast.TagsIn(set), p.ref.TagsIn(set)
	if len(ft) != len(rt) {
		t.Fatalf("TagsIn(%d) length %d fast vs %d model", set, len(ft), len(rt))
	}
	for i := range ft {
		if ft[i] != rt[i] {
			t.Fatalf("TagsIn(%d)[%d] = %d fast vs %d model", set, i, ft[i], rt[i])
		}
	}
	if fr, rr := p.fast.Recency(set), p.ref.Recency(set); !slices.Equal(fr, rr) {
		t.Fatalf("Recency(%d) = %v fast vs %v model", set, fr, rr)
	}
}

// tagSpace is how many distinct tags a script draws from: 31, small
// enough to force collisions, or twice the associativity on wide sets,
// so every way can fill and the set still overflows.
func tagSpace(ways int) int { return max(31, 2*ways) }

// scriptTags maps a script's tag number to its tag. Numbers 2j and 2j+1
// name different tags with one fingerprint (cache.Fingerprint), found by
// search, so every script makes the fast cache's fingerprint filter
// nominate ways the full tag compare must reject. Tags of different
// pairs have different fingerprints.
var scriptTags = func() []cache.Tag {
	tags := make([]cache.Tag, 128)
	for k := range tags {
		if k%2 == 0 {
			tags[k] = cache.Tag(k/2 + 1)
			continue
		}
		t := tags[k-1] + 1<<16
		for cache.Fingerprint(t) != cache.Fingerprint(tags[k-1]) {
			t += 1 << 16
		}
		tags[k] = t
	}
	return tags
}()

// TestScriptTagsCollide pins what scriptTags promises: distinct tags,
// equal fingerprints within a pair, different fingerprints across.
func TestScriptTagsCollide(t *testing.T) {
	seen := map[cache.Tag]bool{}
	for k, tag := range scriptTags {
		if seen[tag] {
			t.Fatalf("tag number %d repeats tag %#x", k, tag)
		}
		seen[tag] = true
		for j := range k {
			if same := cache.Fingerprint(scriptTags[j]) == cache.Fingerprint(tag); same != (j/2 == k/2) {
				t.Fatalf("tags %d (%#x) and %d (%#x): equal fingerprints %v", j, scriptTags[j], k, tag, same)
			}
		}
	}
}

// wideWays are the associativities the top b1 values select: a valid
// bit past bit 31, the widest odd set, and a whole mask word, whose
// region edge is the 1<<64 shift.
var wideWays = [...]int{33, 63, 64}

// cfgFromBytes derives a small but policy- and partition-diverse
// geometry from three fuzz bytes. b1 values 0xFD-0xFF select the wide
// sets; every lower value keeps its 1-12-way decoding.
func cfgFromBytes(b0, b1, b2 byte) cache.Config {
	ways := 1 + int(b1)%12
	if wide := int(b1) - (256 - len(wideWays)); wide >= 0 {
		ways = wideWays[wide]
	}
	return cache.Config{
		Name:        "oracle",
		Sets:        1 + int(b0>>4)%4,
		Ways:        ways,
		Policy:      cache.Policies()[int(b0)%5],
		PartitionAt: int(b2) % ways, // 0 = unpartitioned
	}
}

// FuzzCacheMatchesModel drives the optimized cache and the reference
// model through the same fuzzer-chosen operation script and requires
// op-for-op agreement on every result and every observable probe. The
// committed corpus under testdata/fuzz runs on every plain `go test`.
func FuzzCacheMatchesModel(f *testing.F) {
	// Seeds: each policy, partitioned and not, with a mixed op script.
	script := []byte{0, 1, 2, 2, 3, 0, 4, 1, 2, 0, 5, 2, 6, 0, 2, 1, 2, 3, 0, 0}
	for pol := byte(0); pol < 5; pol++ {
		f.Add(append([]byte{pol, 7, 0}, script...))
		f.Add(append([]byte{pol, 10, 4}, script...))
		f.Add(append([]byte{pol, 0xFF, 32}, script...))
	}
	// Colliding fingerprints (tag numbers 2j and 2j+1), on one set.
	// A 12-way set: tag 16 lands in way 8, the second fingerprint word,
	// and its partner 17 beside it; 16 is then removed, so its way keeps
	// a stale tag and fingerprint, and re-filled.
	wide := []byte{0, 11, 0}
	for tag := byte(0); tag <= 16; tag += 2 {
		wide = append(wide, 2, 0, tag)
	}
	f.Add(append(wide, 2, 0, 17, 0, 0, 17, 0, 0, 16, 4, 0, 16, 0, 0, 16, 0, 0, 17, 5, 0, 17, 2, 0, 16, 4, 0, 17, 0, 0, 16))
	// A 64-way set filled by the even tags: tag 126 is in way 63, and
	// its partner 127 must miss there until it replaces it.
	full := []byte{0, 0xFF, 0}
	for tag := 0; tag < 128; tag += 2 {
		full = append(full, 2, 0, byte(tag))
	}
	f.Add(append(full, 0, 0, 127, 0, 0, 126, 4, 0, 127, 4, 0, 126, 0, 0, 126, 2, 0, 127, 0, 0, 127, 4, 0, 127))
	// SRRIP and QLRU victims at every oldest age a policy reaches (QLRU
	// 0-3; SRRIP 0, 2 and 3, since its ages only take 1 on the way to
	// 3), alone and tied, on one 4-way set: the fill ties the insertion
	// age, the touches tie age 0, the refills age the set, and touching
	// two ways leaves the others tied at the oldest age. The partitioned
	// copies (split at 2; op 0x12 allocates in region 1) age each region
	// apart.
	rrip := []byte{2, 0, 0, 2, 0, 2, 2, 0, 4, 2, 0, 6, 2, 0, 8}
	for _, tag := range []byte{0, 2, 4, 6, 8} {
		rrip = append(rrip, 0, 0, tag)
	}
	rrip = append(rrip, 2, 0, 10, 2, 0, 12, 0, 0, 10, 0, 0, 12, 2, 0, 14, 2, 0, 16, 2, 0, 18, 0, 0, 18, 2, 0, 20, 2, 0, 22, 2, 0, 24)
	for _, pol := range []byte{2, 3} {
		f.Add(append([]byte{pol, 3, 0}, rrip...))
		split := append([]byte{pol, 3, 2}, rrip...)
		for i := 3; i < len(split); i += 3 {
			if split[i] == 2 && split[i+2]%4 == 2 {
				split[i] = 0x12
			}
		}
		f.Add(split)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := cfgFromBytes(data[0], data[1], data[2])
		p := newPair(cfg, 42)
		ops := data[3:]
		for i := 0; i+2 < len(ops); i += 3 {
			p.step(t, cfg, ops[i], ops[i+1], ops[i+2])
		}
	})
}

// TestHotPathMatchesModel is the deterministic CI face of the oracle:
// long pseudo-random scripts over every policy, with and without a way
// partition, checked op-by-op. It covers the same property as the fuzz
// target without needing -fuzz, so a plain `go test ./...` licenses the
// hot path.
func TestHotPathMatchesModel(t *testing.T) {
	for _, pol := range cache.Policies() {
		for _, partition := range []int{0, 3} {
			cfg := cache.Config{
				Name:        "oracle",
				Sets:        4,
				Ways:        11, // odd associativity exercises the PLRU->LRU fallback
				Policy:      pol,
				PartitionAt: partition,
			}
			p := newPair(cfg, uint64(17+partition))
			ops := xrand.New(uint64(1000 + int(pol)))
			for i := 0; i < 4000; i++ {
				p.step(t, cfg, byte(ops.Uint64()), byte(ops.Uint64()), byte(ops.Uint64()))
			}
		}
		// Power-of-two geometry so TreePLRU runs its real tree.
		cfg := cache.Config{Name: "oracle", Sets: 2, Ways: 8, Policy: pol}
		p := newPair(cfg, 23)
		ops := xrand.New(uint64(2000 + int(pol)))
		for i := 0; i < 4000; i++ {
			p.step(t, cfg, byte(ops.Uint64()), byte(ops.Uint64()), byte(ops.Uint64()))
		}
		// Sets as wide as the valid mask allows, unpartitioned and split
		// at 1, 32 and 63. FlushSet is thinned to one in 64 of its draws
		// so sets fill, overflow and free ways again; a geometry where
		// no set ever filled would leave the high mask bits and the
		// region edges untested, so it fails.
		for _, ways := range wideWays {
			for _, partition := range []int{0, 1, 32, 63} {
				if partition >= ways {
					continue
				}
				cfg := cache.Config{Name: "oracle", Sets: 2, Ways: ways, Policy: pol, PartitionAt: partition}
				p := newPair(cfg, uint64(ways+partition))
				ops := xrand.New(uint64(3000 + 100*int(pol) + ways + partition))
				full := false
				for i := 0; i < 6000; i++ {
					op := byte(ops.Uint64())
					if op%7 == 6 && ops.Uint64()%64 != 0 {
						op -= 4 // FlushSet -> InsertRegion
					}
					p.step(t, cfg, op, byte(ops.Uint64()), byte(ops.Uint64()))
					full = full || p.fast.OccupiedWays(0) == ways || p.fast.OccupiedWays(1) == ways
				}
				if !full {
					t.Errorf("%v %d-way split %d: no set ever filled", pol, ways, partition)
				}
			}
		}
	}
}

// TestResetMatchesFreshBothImpls is the reset-vs-fresh metamorphic
// invariant, run against both implementations simultaneously: an
// arbitrarily dirtied then Reset() cache must be indistinguishable from
// a freshly constructed one on any subsequent script — including the
// randomized-policy victim stream.
func TestResetMatchesFreshBothImpls(t *testing.T) {
	for _, pol := range cache.Policies() {
		for _, partition := range []int{0, 2} {
			cfg := cache.Config{Name: "oracle", Sets: 3, Ways: 8, Policy: pol, PartitionAt: partition}
			dirty := newPair(cfg, 99)
			scramble := xrand.New(0xd1e7)
			for i := 0; i < 500; i++ {
				dirty.step(t, cfg, byte(scramble.Uint64()), byte(scramble.Uint64()), byte(scramble.Uint64()))
			}
			dirty.fast.Reset(xrand.New(7))
			dirty.ref.Reset(xrand.New(7))
			fresh := newPair(cfg, 7)
			ops := xrand.New(0xab)
			for i := 0; i < 1000; i++ {
				a, b, c := byte(ops.Uint64()), byte(ops.Uint64()), byte(ops.Uint64())
				dirty.step(t, cfg, a, b, c)
				fresh.step(t, cfg, a, b, c)
				// Cross-check the reset pair against the fresh pair.
				set := int(b) % cfg.Sets
				if do, fo := dirty.fast.OccupiedWays(set), fresh.fast.OccupiedWays(set); do != fo {
					t.Fatalf("%v/split%d: reset cache diverged from fresh at op %d: occupancy %d vs %d",
						pol, partition, i, do, fo)
				}
				dt, ft := dirty.fast.TagsIn(set), fresh.fast.TagsIn(set)
				if len(dt) != len(ft) {
					t.Fatalf("%v/split%d: reset cache holds %d tags vs fresh %d", pol, partition, len(dt), len(ft))
				}
				for j := range dt {
					if dt[j] != ft[j] {
						t.Fatalf("%v/split%d: reset tag %d vs fresh %d", pol, partition, dt[j], ft[j])
					}
				}
			}
		}
	}
}

// TestPartitionIsolationBothImpls is the domain-isolation metamorphic
// invariant: on a way-partitioned cache, no volume of region-0
// allocations may ever evict a region-1 resident (and vice versa), in
// either implementation. This is the property the partition defense
// sells; the oracle pins it on the optimized path.
func TestPartitionIsolationBothImpls(t *testing.T) {
	for _, pol := range cache.Policies() {
		cfg := cache.Config{Name: "oracle", Sets: 2, Ways: 10, Policy: pol, PartitionAt: 4}
		p := newPair(cfg, 5)
		// Residents in region 1.
		protected := []cache.Tag{1000, 1001, 1002}
		for _, tag := range protected {
			p.fast.InsertRegion(1, 0, tag, 0)
			p.ref.InsertRegion(1, 0, tag, 0)
		}
		// Storm region 0 far past its capacity.
		for i := cache.Tag(1); i <= 200; i++ {
			fe := p.fast.InsertRegion(0, 0, i, 0)
			re := p.ref.InsertRegion(0, 0, i, 0)
			if fe != re {
				t.Fatalf("%v: storm insert %d evicted %+v fast vs %+v model", pol, i, fe, re)
			}
			for _, tag := range protected {
				if fe.Valid && fe.Tag == tag {
					t.Fatalf("%v: region-0 storm evicted region-1 resident %d", pol, tag)
				}
			}
		}
		for _, tag := range protected {
			if !p.fast.Contains(0, tag) || !p.ref.Contains(0, tag) {
				t.Fatalf("%v: region-1 resident %d lost isolation", pol, tag)
			}
		}
	}
}

// TestBadPartitionPanicsBothImpls pins the out-of-range partition
// message of both implementations, which must agree: the valid range is
// [0, ways).
func TestBadPartitionPanicsBothImpls(t *testing.T) {
	panicOf := func(build func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		build()
		return ""
	}
	for _, at := range []int{-1, 4} {
		cfg := cache.Config{Name: "bad", Sets: 2, Ways: 4, Policy: cache.TrueLRU, PartitionAt: at}
		fast := panicOf(func() { cache.New(cfg, xrand.New(1)) })
		ref := panicOf(func() { New(cfg, xrand.New(1)) })
		want := fmt.Sprintf(`cache "bad": partition at %d outside [0, 4)`, at)
		if fast != want || ref != want {
			t.Fatalf("PartitionAt %d: panics %q fast, %q model, want %q", at, fast, ref, want)
		}
	}
}
